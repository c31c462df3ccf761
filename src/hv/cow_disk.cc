#include "src/hv/cow_disk.h"

#include <cstring>

#include "src/base/log.h"
#include "src/base/rng.h"

namespace potemkin {

ReferenceDisk::ReferenceDisk(uint64_t num_blocks, uint64_t content_seed)
    : num_blocks_(num_blocks), content_seed_(content_seed) {}

void ReferenceDisk::ReadBlock(uint64_t block, std::span<uint8_t> out) const {
  PK_CHECK(block < num_blocks_) << "reference disk read out of range";
  PK_CHECK(out.size() == kDiskBlockSize);
  Rng rng(content_seed_ ^ (block * 0xff51afd7ed558ccdull));
  // Filesystem-like content: mostly sparse with per-block signatures.
  std::memset(out.data(), 0, out.size());
  const uint64_t signature = rng.NextU64();
  for (size_t i = 0; i < 8; ++i) {
    out[i] = static_cast<uint8_t>(signature >> (8 * i));
  }
  if (block % 4 != 0) {  // 3/4 of blocks carry dense data
    for (size_t i = 8; i < out.size(); i += 16) {
      out[i] = static_cast<uint8_t>(rng.NextU64());
    }
  }
}

CowDisk::CowDisk(const ReferenceDisk* base) : base_(base) {}

bool CowDisk::ReadBlock(uint64_t block, std::span<uint8_t> out) const {
  if (block >= base_->num_blocks() || out.size() != kDiskBlockSize) {
    return false;
  }
  auto it = overlay_.find(block);
  if (it != overlay_.end()) {
    std::memcpy(out.data(), it->second.data(), kDiskBlockSize);
    return true;
  }
  base_->ReadBlock(block, out);
  return true;
}

bool CowDisk::WriteBlock(uint64_t block, std::span<const uint8_t> data) {
  if (block >= base_->num_blocks() || data.size() != kDiskBlockSize) {
    return false;
  }
  overlay_[block].assign(data.begin(), data.end());
  return true;
}

bool CowDisk::WriteBytes(uint64_t block, size_t offset, std::span<const uint8_t> data) {
  if (block >= base_->num_blocks() || offset + data.size() > kDiskBlockSize) {
    return false;
  }
  auto it = overlay_.find(block);
  if (it == overlay_.end()) {
    std::vector<uint8_t> buf(kDiskBlockSize);
    base_->ReadBlock(block, std::span(buf.data(), buf.size()));
    it = overlay_.emplace(block, std::move(buf)).first;
  }
  std::memcpy(it->second.data() + offset, data.data(), data.size());
  return true;
}

}  // namespace potemkin
