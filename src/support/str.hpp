#pragma once

/**
 * @file
 * Small string helpers used across modules.
 */

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

namespace chimera {

/** Joins @p parts with @p sep. */
std::string joinStrings(const std::vector<std::string> &parts,
                        const std::string &sep);

/** Formats a byte count with a binary-unit suffix (KiB/MiB/GiB). */
std::string formatBytes(double bytes);

/** Formats a vector of integers as "(a, b, c)". */
std::string formatVector(const std::vector<std::int64_t> &values);

/**
 * Parses @p token as a complete decimal integer: the whole token must be
 * consumed (no trailing garbage, no empty token) and the value must fit
 * in int64. Throws Error prefixed with @p context otherwise — unlike
 * std::stoll, which both accepts "64abc" and escapes as
 * std::invalid_argument.
 */
std::int64_t parseInt64Strict(const std::string &token,
                              const std::string &context);

/** parseInt64Strict for int-typed values: also rejects values outside
 * int's range instead of narrowing them. */
int parseIntStrict(const std::string &token, const std::string &context);

/** Full-token floating-point counterpart of parseInt64Strict. */
double parseDoubleStrict(const std::string &token,
                         const std::string &context);

/** 64-bit FNV-1a hash of @p data, formatted as 16 lowercase hex chars. */
std::string fnv1a64Hex(const std::string &data);

} // namespace chimera
