#include "support/str.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <iomanip>
#include <limits>

#include "support/error.hpp"

namespace chimera {

std::string
joinStrings(const std::vector<std::string> &parts, const std::string &sep)
{
    std::string out;
    for (std::size_t i = 0; i < parts.size(); ++i) {
        if (i != 0) {
            out += sep;
        }
        out += parts[i];
    }
    return out;
}

std::string
formatBytes(double bytes)
{
    static const char *units[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    int unit = 0;
    while (bytes >= 1024.0 && unit < 4) {
        bytes /= 1024.0;
        ++unit;
    }
    std::ostringstream oss;
    oss << std::fixed << std::setprecision(unit == 0 ? 0 : 2) << bytes << " "
        << units[unit];
    return oss.str();
}

std::string
formatVector(const std::vector<std::int64_t> &values)
{
    std::ostringstream oss;
    oss << "(";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0) {
            oss << ", ";
        }
        oss << values[i];
    }
    oss << ")";
    return oss.str();
}

std::int64_t
parseInt64Strict(const std::string &token, const std::string &context)
{
    errno = 0;
    char *end = nullptr;
    const long long value = std::strtoll(token.c_str(), &end, 10);
    const bool consumed =
        !token.empty() && end == token.c_str() + token.size();
    if (!consumed || errno == ERANGE) {
        throw Error(context + ": invalid integer \"" + token + "\"");
    }
    return static_cast<std::int64_t>(value);
}

int
parseIntStrict(const std::string &token, const std::string &context)
{
    const std::int64_t value = parseInt64Strict(token, context);
    if (value < std::numeric_limits<int>::min() ||
        value > std::numeric_limits<int>::max()) {
        throw Error(context + ": integer out of range \"" + token + "\"");
    }
    return static_cast<int>(value);
}

double
parseDoubleStrict(const std::string &token, const std::string &context)
{
    errno = 0;
    char *end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    const bool consumed =
        !token.empty() && end == token.c_str() + token.size();
    if (!consumed || errno == ERANGE) {
        throw Error(context + ": invalid number \"" + token + "\"");
    }
    return value;
}

std::string
fnv1a64Hex(const std::string &data)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : data) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    // snprintf, not ostringstream: callers sit on the plan cache's warm
    // lookup path where stream construction dominates.
    char hex[17];
    // %016llx is exactly 16 chars; the buffer cannot truncate
    // (cert-err33-c).
    static_cast<void>(std::snprintf(
        hex, sizeof hex, "%016llx",
        static_cast<unsigned long long>(hash)));
    return hex;
}

} // namespace chimera
