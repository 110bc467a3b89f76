// Small string helpers shared across IO, benches and tests.
#pragma once

#include <string>
#include <string_view>

namespace genclus {

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

/// Strict numeric parsing: the whole token must be consumed, and the value
/// must fit a double. Returns false (leaving *out untouched) on any
/// malformed input — unlike std::stod this never throws, so loaders can
/// turn bad file contents into a clean Status.
bool ParseDouble(std::string_view s, double* out);

}  // namespace genclus
