#include "src/net/checksum.h"

#include <bit>
#include <cstring>

namespace potemkin {
namespace {

// Ones-complement sum of an even-length, even-aligned run taken as big-endian
// 16-bit words, folded to 16 bits. Reads 8 bytes per step: 64-bit accumulation
// with end-around carry commutes with byte order up to one final byteswap of
// the folded result (RFC 1071 §2(B)), so the wide loop needs no per-word
// swapping. Folding early is safe because ones-complement addition is
// associative over folded partial sums.
uint16_t FoldedBeSum(const uint8_t* data, size_t length) {
  uint64_t acc = 0;
  size_t i = 0;
  for (; i + 8 <= length; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, 8);
    acc += word;
    acc += static_cast<uint64_t>(acc < word);  // end-around carry
  }
  uint64_t folded = (acc >> 32) + (acc & 0xffffffffull);
  while (folded >> 16) {
    folded = (folded & 0xffff) + (folded >> 16);
  }
  auto sum = static_cast<uint16_t>(folded);
  if constexpr (std::endian::native == std::endian::little) {
    sum = static_cast<uint16_t>((sum << 8) | (sum >> 8));
  }
  uint32_t tail = sum;
  for (; i + 1 < length; i += 2) {  // < 8 leftover bytes
    tail += (static_cast<uint16_t>(data[i]) << 8) | data[i + 1];
    tail = (tail & 0xffff) + (tail >> 16);
  }
  return static_cast<uint16_t>(tail);
}

}  // namespace

void InternetChecksum::Add(const uint8_t* data, size_t length) {
  size_t i = 0;
  if (odd_ && length > 0) {
    // Complete the pending odd byte: it occupied the high half of a 16-bit word.
    sum_ += data[0];
    odd_ = false;
    i = 1;
  }
  const size_t even_length = (length - i) & ~static_cast<size_t>(1);
  if (even_length >= 32) {
    sum_ += FoldedBeSum(data + i, even_length);
    i += even_length;
  } else {
    for (; i + 1 < length; i += 2) {
      sum_ += (static_cast<uint16_t>(data[i]) << 8) | data[i + 1];
    }
  }
  if (i < length) {
    sum_ += static_cast<uint16_t>(data[i]) << 8;
    odd_ = true;
  }
}

void InternetChecksum::AddU16(uint16_t value_host_order) {
  const uint8_t bytes[2] = {static_cast<uint8_t>(value_host_order >> 8),
                            static_cast<uint8_t>(value_host_order)};
  Add(bytes, 2);
}

uint16_t InternetChecksum::Finish() const {
  uint64_t folded = sum_;
  while (folded >> 16) {
    folded = (folded & 0xffff) + (folded >> 16);
  }
  return static_cast<uint16_t>(~folded & 0xffff);
}

uint16_t ComputeInternetChecksum(const uint8_t* data, size_t length) {
  InternetChecksum sum;
  sum.Add(data, length);
  return sum.Finish();
}

uint16_t ChecksumUpdate16(uint16_t checksum, uint16_t old_word,
                          uint16_t new_word) {
  uint32_t sum = static_cast<uint16_t>(~checksum);
  sum += static_cast<uint16_t>(~old_word);
  sum += new_word;
  sum = (sum & 0xffff) + (sum >> 16);
  sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<uint16_t>(~sum & 0xffff);
}

uint16_t ChecksumUpdate32(uint16_t checksum, uint32_t old_word,
                          uint32_t new_word) {
  checksum = ChecksumUpdate16(checksum, static_cast<uint16_t>(old_word >> 16),
                              static_cast<uint16_t>(new_word >> 16));
  return ChecksumUpdate16(checksum, static_cast<uint16_t>(old_word),
                          static_cast<uint16_t>(new_word));
}

}  // namespace potemkin
