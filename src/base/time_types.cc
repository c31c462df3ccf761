#include "src/base/time_types.h"

#include <cstdio>

namespace potemkin {

namespace {

std::string FormatWithUnit(double value, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3g%s", value, unit);
  return buf;
}

}  // namespace

std::string Duration::ToString() const {
  const double ns = static_cast<double>(ns_);
  const double abs_ns = ns < 0 ? -ns : ns;
  if (abs_ns < 1e3) {
    return FormatWithUnit(ns, "ns");
  }
  if (abs_ns < 1e6) {
    return FormatWithUnit(ns / 1e3, "us");
  }
  if (abs_ns < 1e9) {
    return FormatWithUnit(ns / 1e6, "ms");
  }
  return FormatWithUnit(ns / 1e9, "s");
}

}  // namespace potemkin
