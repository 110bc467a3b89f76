#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace genclus {

std::vector<std::string> Split(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string> SplitWhitespace(std::string_view s) {
  std::vector<std::string> out;
  size_t i = 0;
  while (i < s.size()) {
    while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    size_t start = i;
    while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
    if (i > start) out.emplace_back(s.substr(start, i - start));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

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

namespace {

// strtod/strtoull need a NUL-terminated buffer; tokens are short, so a
// stack copy is cheap.
bool CopyToken(std::string_view s, char* buf, size_t buf_size) {
  if (s.empty() || s.size() >= buf_size) return false;
  s.copy(buf, s.size());
  buf[s.size()] = '\0';
  return true;
}

}  // namespace

bool ParseDouble(std::string_view s, double* out) {
  char buf[64];
  if (!CopyToken(s, buf, sizeof(buf))) return false;
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf, &end);
  if (end != buf + s.size() || errno == ERANGE) return false;
  *out = value;
  return true;
}

bool ParseSizeT(std::string_view s, size_t* out) {
  char buf[32];
  if (!CopyToken(s, buf, sizeof(buf))) return false;
  if (s[0] == '-' || s[0] == '+') return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(buf, &end, 10);
  if (end != buf + s.size() || errno == ERANGE ||
      value > std::numeric_limits<size_t>::max()) {
    return false;
  }
  *out = static_cast<size_t>(value);
  return true;
}

}  // namespace genclus
