#include "src/hv/reference_image.h"

#include "src/base/log.h"
#include "src/base/rng.h"

namespace potemkin {

namespace {

// Deterministically decides whether a page is a zero page and, if not, generates
// its contents from (seed, gpfn).
bool IsZeroPage(const ReferenceImageConfig& config, Gpfn gpfn) {
  Rng rng(config.content_seed ^ (static_cast<uint64_t>(gpfn) * 0x9e3779b97f4a7c15ull));
  return rng.NextDouble() < config.zero_page_fraction;
}

}  // namespace

std::vector<uint8_t> ReferenceImage::ExpectedPageContent(
    const ReferenceImageConfig& config, Gpfn gpfn) {
  std::vector<uint8_t> page(kPageSize, 0);
  if (IsZeroPage(config, gpfn)) {
    return page;
  }
  Rng rng(config.content_seed * 0xd1342543de82ef95ull + gpfn);
  // Code-like pages (repetitive) vs data-like pages (high entropy), half and half.
  if (gpfn % 2 == 0) {
    const uint8_t pattern = static_cast<uint8_t>(rng.NextU64());
    for (size_t i = 0; i < kPageSize; ++i) {
      page[i] = static_cast<uint8_t>(pattern + (i % 64));
    }
  } else {
    for (size_t i = 0; i < kPageSize; i += 8) {
      const uint64_t word = rng.NextU64();
      for (size_t j = 0; j < 8 && i + j < kPageSize; ++j) {
        page[i + j] = static_cast<uint8_t>(word >> (8 * j));
      }
    }
  }
  return page;
}

ReferenceImage::ReferenceImage(FrameAllocator* allocator,
                               const ReferenceImageConfig& config)
    : allocator_(allocator), config_(config) {
  Generation boot;
  boot.frames.reserve(config_.num_pages);
  for (Gpfn gpfn = 0; gpfn < config_.num_pages; ++gpfn) {
    const FrameId frame = allocator_->AllocateZeroed();
    if (frame == kInvalidFrame) {
      PK_ERROR << "host out of memory while booting reference image " << config_.name
               << " at page " << gpfn << "/" << config_.num_pages;
      for (FrameId f : boot.frames) {
        allocator_->Unref(f);
      }
      return;
    }
    if (allocator_->mode() == ContentMode::kStoreBytes && !IsZeroPage(config_, gpfn)) {
      const auto content = ExpectedPageContent(config_, gpfn);
      allocator_->Write(frame, 0, std::span(content.data(), content.size()));
    }
    boot.frames.push_back(frame);
  }
  generations_.push_back(std::move(boot));
  ok_ = true;
}

ReferenceImage::~ReferenceImage() {
  for (Generation& gen : generations_) {
    for (FrameId frame : gen.frames) {
      allocator_->Unref(frame);
    }
    gen.frames.clear();
  }
}

const ReferenceImage::Generation& ReferenceImage::LiveGeneration(
    ImageGeneration gen) const {
  PK_CHECK(gen < generations_.size()) << "unknown image generation";
  PK_CHECK(!generations_[gen].retired) << "access to retired image generation";
  return generations_[gen];
}

FrameId ReferenceImage::FrameForPage(Gpfn gpfn) const {
  return FrameForPage(current_generation(), gpfn);
}

FrameId ReferenceImage::FrameForPage(ImageGeneration generation, Gpfn gpfn) const {
  const Generation& gen = LiveGeneration(generation);
  PK_CHECK(gpfn < gen.frames.size()) << "image page out of range";
  return gen.frames[gpfn];
}

std::span<const FrameId> ReferenceImage::GenerationFrames(
    ImageGeneration generation) const {
  const Generation& gen = LiveGeneration(generation);
  return std::span<const FrameId>(gen.frames.data(), gen.frames.size());
}

size_t ReferenceImage::live_generations() const {
  size_t live = 0;
  for (const Generation& gen : generations_) {
    live += gen.retired ? 0 : 1;
  }
  return live;
}

bool ReferenceImage::Refresh(std::span<const ImagePatch> patches) {
  const ImageGeneration parent_id = current_generation();
  const Generation& parent = generations_[parent_id];
  std::vector<bool> patched(config_.num_pages, false);
  for (const ImagePatch& patch : patches) {
    PK_CHECK(patch.gpfn < config_.num_pages) << "patch outside image";
    PK_CHECK(patch.bytes.size() <= kPageSize) << "patch larger than a page";
    PK_CHECK(!patched[patch.gpfn]) << "duplicate patch for page " << patch.gpfn;
    patched[patch.gpfn] = true;
  }
  // Allocate the replacement frames first so a denied refresh leaves the
  // image untouched.
  std::vector<FrameId> fresh(patches.size());
  if (!patches.empty() &&
      allocator_->AllocateBatch(static_cast<uint32_t>(patches.size()),
                                fresh.data()) != FrameAllocStatus::kOk) {
    PK_ERROR << "image " << config_.name << " refresh denied: host cannot back "
             << patches.size() << " patched pages";
    return false;
  }
  Generation next;
  next.frames = parent.frames;
  for (size_t i = 0; i < patches.size(); ++i) {
    if (allocator_->mode() == ContentMode::kStoreBytes && !patches[i].bytes.empty()) {
      allocator_->Write(fresh[i], 0,
                        std::span(patches[i].bytes.data(), patches[i].bytes.size()));
    }
    next.frames[patches[i].gpfn] = fresh[i];
  }
  // The new generation takes its own reference on every inherited frame.
  for (Gpfn gpfn = 0; gpfn < next.frames.size(); ++gpfn) {
    if (next.frames[gpfn] == parent.frames[gpfn]) {
      allocator_->Ref(next.frames[gpfn]);
    }
  }
  generations_.push_back(std::move(next));
  // The parent is no longer the newest; if no clone pinned it, its frames go
  // now (unpatched ones survive through the new generation's references).
  MaybeRetire(parent_id);
  return true;
}

void ReferenceImage::PinGeneration(ImageGeneration generation) {
  PK_CHECK(generation < generations_.size()) << "pin of unknown generation";
  PK_CHECK(!generations_[generation].retired) << "pin of retired generation";
  ++generations_[generation].pin_count;
}

void ReferenceImage::UnpinGeneration(ImageGeneration generation) {
  PK_CHECK(generation < generations_.size()) << "unpin of unknown generation";
  Generation& gen = generations_[generation];
  PK_CHECK(gen.pin_count > 0) << "unpin without pin";
  --gen.pin_count;
  MaybeRetire(generation);
}

uint32_t ReferenceImage::pins(ImageGeneration generation) const {
  PK_CHECK(generation < generations_.size()) << "pins of unknown generation";
  return generations_[generation].pin_count;
}

void ReferenceImage::MaybeRetire(ImageGeneration gen_id) {
  Generation& gen = generations_[gen_id];
  if (gen.retired || gen.pin_count > 0 || gen_id == current_generation()) {
    return;
  }
  for (FrameId frame : gen.frames) {
    allocator_->Unref(frame);
  }
  gen.frames.clear();
  gen.frames.shrink_to_fit();
  gen.retired = true;
}

}  // namespace potemkin
