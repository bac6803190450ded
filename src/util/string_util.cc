#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace tpm {

std::vector<std::string_view> Split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  Split(s, delim, &out);
  return out;
}

void Split(std::string_view s, char delim, std::vector<std::string_view>* out) {
  out->clear();
  size_t start = 0;
  while (true) {
    size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) {
      out->push_back(s.substr(start));
      break;
    }
    out->push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

std::string Join(const std::vector<std::string>& pieces, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

Result<int64_t> ParseInt64(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty integer field");
  // strtoll's grammar: one optional sign, then digits. from_chars reads a
  // '-' but not a '+', so a '+' is skipped here and may not precede a '-'.
  const bool plus = s.front() == '+';
  const char* first = s.data() + (plus ? 1 : 0);
  const char* last = s.data() + s.size();
  int64_t v = 0;
  std::from_chars_result r{first, std::errc::invalid_argument};
  if (!plus || (first != last && *first != '-')) r = std::from_chars(first, last, v);
  if (r.ec == std::errc::result_out_of_range) {
    return Status::OutOfRange("integer out of range: '" + std::string(s) + "'");
  }
  if (r.ec != std::errc() || r.ptr != last) {
    return Status::InvalidArgument("not an integer: '" + std::string(s) + "'");
  }
  return v;
}

Result<double> ParseDouble(std::string_view s) {
  s = Trim(s);
  if (s.empty()) return Status::InvalidArgument("empty numeric field");
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::OutOfRange("number out of range: '" + buf + "'");
  }
  if (end != buf.c_str() + buf.size()) {
    return Status::InvalidArgument("not a number: '" + buf + "'");
  }
  return v;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string StringPrintf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int needed = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  }
  va_end(ap2);
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StringPrintf("%llu B", static_cast<unsigned long long>(bytes));
  return StringPrintf("%.1f %s", v, kUnits[unit]);
}

}  // namespace tpm
