#include "src/base/json_util.h"

#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace potemkin {

void AppendJsonString(std::string& out, std::string_view value) {
  out += '"';
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendJsonNumber(std::string& out, double value) {
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    // Exact in an int64_t, so to_chars prints what "%.0f" would, minus the
    // sign of -0.0.
    if (value == 0.0 && std::signbit(value)) {
      out += "-0";
      return;
    }
    char buffer[24];
    const std::to_chars_result written = std::to_chars(
        buffer, buffer + sizeof(buffer), static_cast<int64_t>(value));
    out.append(buffer, written.ptr);
    return;
  }
  char buffer[48];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  out += buffer;
}

std::string ReadAll(std::FILE* file) {
  std::string text;
  char buffer[4096];
  size_t got;
  while ((got = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    text.append(buffer, got);
  }
  return text;
}

std::string ReadFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return "";
  }
  std::string text = ReadAll(file);
  std::fclose(file);
  return text;
}

bool WriteFile(const std::string& path, std::string_view text) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    return false;
  }
  const size_t written = std::fwrite(text.data(), 1, text.size(), file);
  // fclose flushes the stdio buffer: a short write can first show up here.
  const bool closed = std::fclose(file) == 0;
  return closed && written == text.size();
}

namespace {

// Offset just past the colon that follows `"key"` in text[from, until), or
// npos when the key does not start before `until`.
size_t ValueStart(const std::string& text, std::string_view key, size_t from,
                  size_t until) {
  std::string needle = "\"";
  needle += key;
  needle += '"';
  const size_t at = text.find(needle, from);
  if (at == std::string::npos || at >= until) {
    return std::string::npos;
  }
  const size_t colon = text.find(':', at + needle.size());
  return colon == std::string::npos ? colon : colon + 1;
}

}  // namespace

std::string FindJsonString(const std::string& text, std::string_view key,
                           size_t from, size_t until) {
  const size_t start = ValueStart(text, key, from, until);
  size_t cursor = text.find('"', start);
  if (start == std::string::npos || cursor == std::string::npos ||
      cursor >= until) {
    return "";
  }
  std::string value;
  for (++cursor; cursor < until && text[cursor] != '"'; ++cursor) {
    value += text[cursor];
  }
  return value;
}

double FindJsonNumber(const std::string& text, std::string_view key,
                      size_t from, size_t until) {
  const size_t start = ValueStart(text, key, from, until);
  if (start == std::string::npos) {
    return std::nan("");
  }
  return std::strtod(text.c_str() + start, nullptr);
}

}  // namespace potemkin
