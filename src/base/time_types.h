// Virtual time primitives for the discrete-event simulation.
//
// All simulated components express time as a `Duration` (signed nanoseconds) or a
// `TimePoint` (nanoseconds since simulation start). These are strong wrapper types so
// that raw integer nanoseconds, microseconds and seconds cannot be mixed up silently.
#ifndef SRC_BASE_TIME_TYPES_H_
#define SRC_BASE_TIME_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace potemkin {

// A span of simulated time, in nanoseconds. Signed so differences are well defined.
class Duration {
 public:
  constexpr Duration() : ns_(0) {}

  static constexpr Duration Nanos(int64_t n) { return Duration(n); }
  static constexpr Duration Micros(int64_t u) { return Duration(u * 1000); }
  static constexpr Duration Millis(int64_t m) { return Duration(m * 1000000); }
  static constexpr Duration Seconds(double s) {
    return Duration(static_cast<int64_t>(s * 1e9));
  }
  static constexpr Duration Minutes(double m) { return Seconds(m * 60.0); }
  static constexpr Duration Hours(double h) { return Seconds(h * 3600.0); }
  static constexpr Duration Max() {
    return Duration(std::numeric_limits<int64_t>::max());
  }
  static constexpr Duration Zero() { return Duration(0); }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }
  constexpr double millis_f() const { return static_cast<double>(ns_) / 1e6; }

  constexpr bool IsZero() const { return ns_ == 0; }

  constexpr Duration operator+(Duration o) const { return Duration(ns_ + o.ns_); }
  constexpr Duration operator*(double k) const {
    return Duration(static_cast<int64_t>(static_cast<double>(ns_) * k));
  }
  constexpr Duration operator/(int64_t k) const { return Duration(ns_ / k); }
  constexpr double operator/(Duration o) const {
    return static_cast<double>(ns_) / static_cast<double>(o.ns_);
  }
  Duration& operator+=(Duration o) {
    ns_ += o.ns_;
    return *this;
  }
  constexpr auto operator<=>(const Duration&) const = default;

  // Human-readable rendering with an auto-selected unit, e.g. "1.50ms", "2.3s".
  std::string ToString() const;

 private:
  explicit constexpr Duration(int64_t ns) : ns_(ns) {}
  int64_t ns_;
};

// An instant in simulated time, measured from simulation start.
class TimePoint {
 public:
  constexpr TimePoint() : ns_(0) {}
  static constexpr TimePoint FromNanos(int64_t n) { return TimePoint(n); }
  static constexpr TimePoint Max() {
    return TimePoint(std::numeric_limits<int64_t>::max());
  }

  constexpr int64_t nanos() const { return ns_; }
  constexpr double seconds() const { return static_cast<double>(ns_) / 1e9; }

  constexpr TimePoint operator+(Duration d) const { return TimePoint(ns_ + d.nanos()); }
  constexpr Duration operator-(TimePoint o) const { return Duration::Nanos(ns_ - o.ns_); }
  TimePoint& operator+=(Duration d) {
    ns_ += d.nanos();
    return *this;
  }
  constexpr auto operator<=>(const TimePoint&) const = default;

 private:
  explicit constexpr TimePoint(int64_t ns) : ns_(ns) {}
  int64_t ns_;
};

}  // namespace potemkin

#endif  // SRC_BASE_TIME_TYPES_H_
