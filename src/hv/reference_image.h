// Reference images: frozen snapshots of a booted guest that flash clones map
// copy-on-write. The paper boots a VM once per host, snapshots it, and serves all
// clones from that snapshot; we synthesize the snapshot's memory contents
// deterministically from a seed (a mix of zero pages, code-like pages and data-like
// pages, with realistic proportions) so tests can verify clones observe exactly the
// image's bytes.
//
// Images are *versioned*: `Refresh` derives a new generation by patching a
// handful of pages (a rebooted/updated snapshot) while structurally sharing
// every unpatched frame with the previous generation via refcounts. New clones
// bind the newest generation; a live clone pins the generation it booted from,
// so the farm never drains to take an image update — an old generation's
// residual frames are released when its last clone is recycled.
//
// Each image also carries the working-set profile ([[working_set.h]]) recorded
// from its completed sessions, since the profile describes *this image's* page
// layout and travels with it.
#ifndef SRC_HV_REFERENCE_IMAGE_H_
#define SRC_HV_REFERENCE_IMAGE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/hv/frame_allocator.h"
#include "src/hv/types.h"
#include "src/hv/working_set.h"

namespace potemkin {

struct ReferenceImageConfig {
  std::string name = "linux-reference";
  uint32_t num_pages = 8192;  // 32 MiB guest by default
  uint64_t content_seed = 1;
  // Fraction of pages that are zero in the booted snapshot (free memory). Zero
  // pages still get distinct frames so that sharing accounting is conservative.
  double zero_page_fraction = 0.4;
};

// One page replaced by an image refresh; `bytes` (≤ kPageSize) land at the
// start of the page, the remainder zero-fills.
struct ImagePatch {
  Gpfn gpfn = 0;
  std::vector<uint8_t> bytes;
};

// Identifies an image generation; 0 is the boot-time snapshot.
using ImageGeneration = uint32_t;

class ReferenceImage {
 public:
  // Builds generation 0 by "booting": allocates one frame per guest page from
  // `allocator` and fills deterministic contents. Each live generation holds one
  // reference to each of its frames.
  ReferenceImage(FrameAllocator* allocator, const ReferenceImageConfig& config);
  ~ReferenceImage();
  ReferenceImage(const ReferenceImage&) = delete;
  ReferenceImage& operator=(const ReferenceImage&) = delete;

  uint32_t num_pages() const { return config_.num_pages; }
  // Test oracle, reached by no program: the frame backing `gpfn` in the newest
  // generation (the binding every new clone gets).
  FrameId FrameForPage(Gpfn gpfn) const;
  // Frame backing `gpfn` in a specific (still-live) generation.
  FrameId FrameForPage(ImageGeneration generation, Gpfn gpfn) const;
  // All frames of a live generation, indexed by gpfn — a flash clone binds this
  // span as its AddressSpace base (see AddressSpace::BindBase for why it stays
  // valid while the generation is pinned).
  std::span<const FrameId> GenerationFrames(ImageGeneration generation) const;

  // ---- Generations ----

  ImageGeneration current_generation() const {
    return static_cast<ImageGeneration>(generations_.size() - 1);
  }
  // Test oracle, reached by no program: generations still holding frames (the
  // newest plus any pinned ancestors).
  size_t live_generations() const;

  // Derives a new generation from the newest one: unpatched pages share the
  // parent's frames (one extra reference each, no copy), patched pages get
  // fresh frames with the given bytes. Returns false (image unchanged) if the
  // host cannot back the patched pages. A parent generation with no pinned
  // clones releases its frames immediately; refcounts keep shared frames live.
  bool Refresh(std::span<const ImagePatch> patches);

  // Clone lifetime pinning. A clone pins the generation it binds at creation
  // and unpins at recycle; a non-newest generation with zero pins releases its
  // frame references (shared frames survive through newer generations' refs).
  void PinGeneration(ImageGeneration generation);
  void UnpinGeneration(ImageGeneration generation);
  // Test oracle, reached by no program.
  uint32_t pins(ImageGeneration generation) const;

  // The image's working-set profile: recording clones fold their sessions
  // into it and predicting clones read from it.
  WorkingSetProfile& working_set() { return working_set_; }
  const WorkingSetProfile& working_set() const { return working_set_; }

  // Regenerates the expected content of one generation-0 page (for
  // verification in tests).
  static std::vector<uint8_t> ExpectedPageContent(const ReferenceImageConfig& config,
                                                  Gpfn gpfn);

  bool ok() const { return ok_; }

 private:
  struct Generation {
    std::vector<FrameId> frames;  // empty once retired
    uint32_t pin_count = 0;
    bool retired = false;  // frames released (never the newest generation)
  };

  // Releases `gen`'s frame references if it is non-newest and unpinned.
  void MaybeRetire(ImageGeneration gen);
  const Generation& LiveGeneration(ImageGeneration gen) const;

  FrameAllocator* allocator_;
  ReferenceImageConfig config_;
  std::vector<Generation> generations_;
  WorkingSetProfile working_set_;
  bool ok_ = false;
};

}  // namespace potemkin

#endif  // SRC_HV_REFERENCE_IMAGE_H_
