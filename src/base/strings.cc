#include "src/base/strings.h"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace potemkin {

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> StrSplit(std::string_view input, char delimiter) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (true) {
    const size_t pos = input.find(delimiter, start);
    if (pos == std::string_view::npos) {
      parts.emplace_back(input.substr(start));
      return parts;
    }
    parts.emplace_back(input.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view StrTrim(std::string_view input) {
  size_t begin = 0;
  size_t end = input.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(input[begin]))) {
    ++begin;
  }
  while (end > begin && std::isspace(static_cast<unsigned char>(input[end - 1]))) {
    --end;
  }
  return input.substr(begin, end - begin);
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

namespace {

template <typename T, typename Fn>
std::optional<T> ParseWith(std::string_view text, Fn fn) {
  const std::string buf(StrTrim(text));
  if (buf.empty()) {
    return std::nullopt;
  }
  errno = 0;
  char* end = nullptr;
  const T value = fn(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

std::optional<int64_t> ParseInt64(std::string_view text) {
  return ParseWith<int64_t>(
      text, [](const char* s, char** end) { return std::strtoll(s, end, 10); });
}

std::optional<uint64_t> ParseUint64(std::string_view text) {
  if (!text.empty() && StrTrim(text).front() == '-') {
    return std::nullopt;
  }
  return ParseWith<uint64_t>(
      text, [](const char* s, char** end) { return std::strtoull(s, end, 10); });
}

std::optional<double> ParseDouble(std::string_view text) {
  return ParseWith<double>(text,
                           [](const char* s, char** end) { return std::strtod(s, end); });
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  size_t unit = 0;
  while (value >= 1024.0 && unit + 1 < sizeof(kUnits) / sizeof(kUnits[0])) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) {
    return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  }
  return StrFormat("%.1f %s", value, kUnits[unit]);
}

std::string WithCommas(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  const size_t n = digits.size();
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && (n - i) % 3 == 0) {
      out += ',';
    }
    out += digits[i];
  }
  return out;
}

}  // namespace potemkin
