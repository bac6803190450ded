// Small string helpers shared by the IO and rendering layers.

#pragma once


#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace tpm {

/// Splits on `delim`; keeps empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> Split(std::string_view s, char delim);
/// The same split into `out` (cleared first), reusing its capacity.
void Split(std::string_view s, char delim, std::vector<std::string_view>* out);

/// Removes leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// Joins pieces with `sep`.
std::string Join(const std::vector<std::string>& pieces, std::string_view sep);

/// Strict signed integer parse of the whole string (no trailing junk).
Result<int64_t> ParseInt64(std::string_view s);

/// Strict double parse of the whole string.
Result<double> ParseDouble(std::string_view s);

/// True if `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Renders byte counts like "12.3 MiB".
std::string HumanBytes(uint64_t bytes);

}  // namespace tpm

