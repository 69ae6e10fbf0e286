/**
 * @file
 * Small string helpers used by the assembler and report printers,
 * and the one integer parser for numbers that come from outside
 * (command-line options and PPM_* variables).
 */

#ifndef PPM_SUPPORT_STRING_UTILS_HH
#define PPM_SUPPORT_STRING_UTILS_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ppm {

/** Strip leading and trailing whitespace. */
std::string_view trim(std::string_view s);

/** Split @p s on @p sep, trimming each piece; empty pieces are kept. */
std::vector<std::string_view> splitAndTrim(std::string_view s, char sep);

/** Case-sensitive "does s start with prefix". */
bool startsWith(std::string_view s, std::string_view prefix);

/** Render a double as a fixed-width percentage like "12.3". */
std::string formatPercent(double fraction, int decimals = 1);

/** Render a count with thousands separators: 1234567 -> "1,234,567". */
std::string formatCount(std::uint64_t v);

/** Render a double with @p decimals digits. */
std::string formatDouble(double v, int decimals = 2);

/**
 * All of @p text as an unsigned integer, in decimal or 0x-prefixed
 * hex. A sign, whitespace, a trailing byte or a value past 2^64 - 1
 * yields nullopt.
 */
std::optional<std::uint64_t> parseUint(std::string_view text);

/** parseUint after an optional '-', within std::int64_t's range. */
std::optional<std::int64_t> parseInt(std::string_view text);

} // namespace ppm

#endif // PPM_SUPPORT_STRING_UTILS_HH
