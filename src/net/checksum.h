// RFC 1071 Internet checksum, used for IPv4 header, TCP, UDP and ICMP checksums.
#ifndef SRC_NET_CHECKSUM_H_
#define SRC_NET_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace potemkin {

// Running ones-complement sum; finalize with `Fold` then complement.
class InternetChecksum {
 public:
  void Add(const uint8_t* data, size_t length);
  void AddU16(uint16_t value_host_order);

  // Final checksum in host order (caller writes it big-endian into the packet).
  uint16_t Finish() const;

 private:
  uint64_t sum_ = 0;
  bool odd_ = false;  // true if an odd byte is pending in the high half.
};

// One-shot convenience over a contiguous buffer.
uint16_t ComputeInternetChecksum(const uint8_t* data, size_t length);

// RFC 1624 incremental update: returns the stored checksum after one 16-bit
// field covered by it changes from `old_word` to `new_word` (host order).
// Equation 3: HC' = ~(~HC + ~m + m'). For any packet whose summed bytes are
// not all zero — true of every real IP/TCP/UDP header — this is bit-identical
// to a full recompute, so rewrites may mix the two freely.
uint16_t ChecksumUpdate16(uint16_t checksum, uint16_t old_word,
                          uint16_t new_word);

// Same, for a 32-bit field (e.g. an IPv4 address) treated as two 16-bit words.
uint16_t ChecksumUpdate32(uint16_t checksum, uint32_t old_word,
                          uint32_t new_word);

}  // namespace potemkin

#endif  // SRC_NET_CHECKSUM_H_
