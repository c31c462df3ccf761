#include "src/base/token_bucket.h"

#include <algorithm>

namespace potemkin {

TokenBucket::TokenBucket(double rate_per_sec, double burst)
    : rate_per_sec_(rate_per_sec), burst_(burst), tokens_(burst) {}

void TokenBucket::Refill(TimePoint now) {
  if (now <= last_refill_) {
    return;
  }
  const double elapsed = (now - last_refill_).seconds();
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_per_sec_);
  last_refill_ = now;
}

bool TokenBucket::TryConsume(TimePoint now, double tokens) {
  Refill(now);
  if (tokens_ + 1e-12 >= tokens) {
    tokens_ -= tokens;
    return true;
  }
  return false;
}

}  // namespace potemkin
