// Token-bucket rate limiter over virtual time. The gateway uses one per VM to
// implement the paper's "rate-limit outbound traffic" containment option.
#ifndef SRC_BASE_TOKEN_BUCKET_H_
#define SRC_BASE_TOKEN_BUCKET_H_

#include <cstdint>

#include "src/base/time_types.h"

namespace potemkin {

class TokenBucket {
 public:
  // `rate_per_sec` tokens accrue per simulated second, up to `burst` tokens.
  TokenBucket(double rate_per_sec, double burst);

  // Attempts to consume `tokens` at virtual time `now`. Returns true on success.
  bool TryConsume(TimePoint now, double tokens = 1.0);

 private:
  void Refill(TimePoint now);

  double rate_per_sec_;
  double burst_;
  double tokens_;
  TimePoint last_refill_;
};

}  // namespace potemkin

#endif  // SRC_BASE_TOKEN_BUCKET_H_
