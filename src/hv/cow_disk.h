// Copy-on-write virtual disks.
//
// The paper gives every flash clone a copy-on-write view of a reference disk image
// so that disk state, like memory, costs only the delta a clone actually writes.
// `ReferenceDisk` synthesizes block contents deterministically from a seed;
// `CowDisk` overlays private blocks on top.
#ifndef SRC_HV_COW_DISK_H_
#define SRC_HV_COW_DISK_H_

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

namespace potemkin {

inline constexpr size_t kDiskBlockSize = 4096;

class ReferenceDisk {
 public:
  ReferenceDisk(uint64_t num_blocks, uint64_t content_seed);

  uint64_t num_blocks() const { return num_blocks_; }
  uint64_t size_bytes() const { return num_blocks_ * kDiskBlockSize; }

  // Fills `out` (kDiskBlockSize bytes) with the block's deterministic content.
  void ReadBlock(uint64_t block, std::span<uint8_t> out) const;

 private:
  uint64_t num_blocks_;
  uint64_t content_seed_;
};

class CowDisk {
 public:
  explicit CowDisk(const ReferenceDisk* base);

  uint64_t num_blocks() const { return base_->num_blocks(); }

  // Reads through the overlay (private block if written, else base content).
  bool ReadBlock(uint64_t block, std::span<uint8_t> out) const;
  // Writes always land in the overlay. Returns false for out-of-range blocks.
  bool WriteBlock(uint64_t block, std::span<const uint8_t> data);
  // Read-modify-write of a byte range within one block.
  bool WriteBytes(uint64_t block, size_t offset, std::span<const uint8_t> data);

  // The clone's disk delta.
  uint64_t overlay_blocks() const { return overlay_.size(); }

  // Iterates the overlay: fn(block_number, bytes). Used by snapshot capture.
  template <typename Fn>
  void ForEachOverlayBlock(Fn&& fn) const {
    for (const auto& [block, data] : overlay_) {
      fn(block, data);
    }
  }

 private:
  const ReferenceDisk* base_;
  std::unordered_map<uint64_t, std::vector<uint8_t>> overlay_;
};

}  // namespace potemkin

#endif  // SRC_HV_COW_DISK_H_
