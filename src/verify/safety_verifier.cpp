#include "verify/safety_verifier.hpp"

#include <algorithm>

namespace chimera::verify {

Report
verifyPlanSafety(const ir::Chain &chain, const plan::ExecutionPlan &plan,
                 const SafetyVerifyOptions &options,
                 analysis::SafetyAnalysis *out)
{
    const std::string spec =
        options.domainSpec.empty() ? "concrete" : options.domainSpec;
    const analysis::ShapeDomain domain =
        analysis::parseShapeDomain(chain, spec, "safety domain");
    analysis::SafetyOptions so;
    so.memCapacityBytes = options.memCapacityBytes;
    so.topology = options.topology;
    // A thread-aware plan's own worker count wins over the option.
    const int workers = plan.plannedThreads > 1
                            ? plan.plannedThreads
                            : std::max(1, options.workers);
    const analysis::SafetyAnalysis sa = analysis::analyzeSafety(
        chain, plan.tiles, plan::effectiveConcurrency(chain, plan), workers,
        domain, so);
    Report report;
    for (const analysis::SafetyViolation &v : sa.violations) {
        report.error(analysis::safetyRuleName(v.rule), v.location,
                     v.message);
    }
    if (out != nullptr) {
        *out = sa;
    }
    return report;
}

} // namespace chimera::verify
