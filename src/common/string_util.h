// Small string helpers shared across IO, benches and tests.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace genclus {

/// Splits `s` on `delim`, keeping empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

/// Splits on any run of whitespace, dropping empty fields.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

/// Strips leading and trailing whitespace.
std::string Trim(std::string_view s);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict numeric parsing: the whole token must be consumed, and the value
/// must fit the target type. Returns false (leaving *out untouched) on any
/// malformed input — unlike std::stod/stoul these never throw, so loaders
/// can turn bad file contents into a clean Status.
bool ParseDouble(std::string_view s, double* out);
bool ParseSizeT(std::string_view s, size_t* out);

}  // namespace genclus
