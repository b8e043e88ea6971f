/**
 * @file
 * Small string helpers used across modules (no locale dependence).
 */

#ifndef CMINER_UTIL_STRING_UTIL_H
#define CMINER_UTIL_STRING_UTIL_H

#include <string>
#include <string_view>
#include <vector>

namespace cminer::util {

/** Split a string on a single-character delimiter; keeps empty fields. */
std::vector<std::string> split(std::string_view text, char delimiter);

/** Join strings with a separator. */
std::string join(const std::vector<std::string> &parts,
                 std::string_view separator);

/** Strip ASCII whitespace from both ends. */
std::string trim(std::string_view text);

/** True when text starts with the given prefix. */
bool startsWith(std::string_view text, std::string_view prefix);

/** printf-style formatting into a std::string. */
std::string format(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Format a double with fixed decimals, e.g. formatDouble(3.14159, 2)
 * == "3.14".
 */
std::string formatDouble(double value, int decimals);

/**
 * Parse a double strictly: the whole field must be consumed.
 *
 * @param text the field to parse
 * @param out receives the value on success
 * @return true when the parse consumed the entire (trimmed) field
 */
bool parseDouble(std::string_view text, double &out);

} // namespace cminer::util

#endif // CMINER_UTIL_STRING_UTIL_H
