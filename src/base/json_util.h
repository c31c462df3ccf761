// Shared JSON helpers for every artifact writer and reader in the farm (BENCH
// reports, health snapshots, telemetry time series, trajectory entries).
//
// One definition of the escaping and number-formatting rules keeps artifacts
// byte-level comparable across tools: the CI jobs byte-compare repeated runs
// and string-scan the output, so two writers disagreeing about how to format
// `1e15` or escape a quote would silently break those gates.
//
// Appenders never allocate beyond growing `out` — callers that pre-reserve the
// destination string (the telemetry exporter's line ring does) stay
// allocation-free in steady state.
//
// The readers are a deliberate key scan, not a JSON library: every artifact
// schema is flat and fixed, and its writer sits next to its reader (BENCH
// reports in bench/report, health snapshots in src/obs/health_snapshot), so
// scanning for the handful of keys each format needs is simpler and
// dependency-free.
#ifndef SRC_BASE_JSON_UTIL_H_
#define SRC_BASE_JSON_UTIL_H_

#include <cstdio>
#include <string>
#include <string_view>

namespace potemkin {

// Appends `value` as a quoted JSON string. Escapes `"` `\` `\n` like the
// historical per-tool copies did, plus `\uXXXX` for any other control byte
// (< 0x20) so a hostile metric label can never produce invalid JSON.
void AppendJsonString(std::string& out, std::string_view value);

// Appends `value` as a JSON number: integral values below 1e15 in magnitude
// print as integers (the digits `%.0f` gives, `-0` included, written without
// snprintf), everything else round-trips via `%.17g`; non-finite values emit
// `null` (JSON has no NaN/Inf).
void AppendJsonNumber(std::string& out, double value);

// Every byte remaining in `file` (the caller keeps ownership of it).
std::string ReadAll(std::FILE* file);
// The whole file at `path`; empty when it cannot be opened.
std::string ReadFile(const std::string& path);
// Replaces the file at `path` with `text`. False when the file cannot be
// opened or not every byte reached it, so callers can report a lost artifact.
bool WriteFile(const std::string& path, std::string_view text);

// The string value following `"key":` inside text[from, until), or "" when the
// key does not start before `until`. Escapes are not decoded.
std::string FindJsonString(const std::string& text, std::string_view key,
                           size_t from, size_t until);
// The number following `"key":` inside text[from, until), or NaN when the key
// does not start before `until`.
double FindJsonNumber(const std::string& text, std::string_view key,
                      size_t from, size_t until);

}  // namespace potemkin

#endif  // SRC_BASE_JSON_UTIL_H_
