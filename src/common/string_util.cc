#include "common/string_util.h"

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace genclus {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

bool ParseDouble(std::string_view s, double* out) {
  // strtod needs a NUL-terminated buffer; tokens are short, so a stack
  // copy is cheap.
  char buf[64];
  if (s.empty() || s.size() >= sizeof(buf)) return false;
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + s.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

}  // namespace genclus
