// Small string helpers used throughout the project (printf-style formatting because
// the toolchain's libstdc++ predates std::format, splitting, parsing).
#ifndef SRC_BASE_STRINGS_H_
#define SRC_BASE_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace potemkin {

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

std::vector<std::string> StrSplit(std::string_view input, char delimiter);

// Trims ASCII whitespace from both ends.
std::string_view StrTrim(std::string_view input);

bool StartsWith(std::string_view text, std::string_view prefix);

std::optional<int64_t> ParseInt64(std::string_view text);
std::optional<uint64_t> ParseUint64(std::string_view text);
std::optional<double> ParseDouble(std::string_view text);

// Renders a byte count as a human-readable size, e.g. "4.0 KiB", "1.2 GiB".
std::string HumanBytes(uint64_t bytes);

// Renders a large count with thousands separators, e.g. "1,234,567".
std::string WithCommas(uint64_t value);

}  // namespace potemkin

#endif  // SRC_BASE_STRINGS_H_
