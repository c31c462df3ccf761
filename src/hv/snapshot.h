// VM snapshots for forensic archiving.
//
// The farm's whole purpose is to *capture* malware; when an infected VM is
// recycled its state must not be lost. A snapshot records everything unique to
// the VM — exactly its delta against the reference image: the private memory
// pages and identification metadata (clones have no disk). Snapshots serialize
// to a compact "PKSN2" file and can be restored into a fresh flash clone of the
// same image, reproducing the infected machine for offline analysis.
#ifndef SRC_HV_SNAPSHOT_H_
#define SRC_HV_SNAPSHOT_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "src/base/time_types.h"
#include "src/hv/vm.h"

namespace potemkin {

struct VmSnapshotMeta {
  VmId vm = kInvalidVm;
  std::string name;
  uint32_t ip = 0;  // bound address (host order)
  int64_t taken_at_ns = 0;
  uint32_t num_pages = 0;  // guest address-space size
  bool infected = false;
};

class VmSnapshot {
 public:
  // Captures the VM's delta state. Page contents are read through the allocator,
  // so in kMetadataOnly mode the *set* of dirty pages is preserved but their
  // contents are zeros (documented limitation of accounting-only hosts).
  static VmSnapshot Capture(const VirtualMachine& vm, TimePoint now);

  const VmSnapshotMeta& meta() const { return meta_; }
  size_t delta_pages() const { return pages_.size(); }

  // Restores the delta into `vm`, which must be a clone of the same reference
  // image (same address-space size). Returns false on shape mismatch or OOM.
  bool RestoreInto(VirtualMachine* vm) const;

  // Test oracle, reached by no program: the captured content of one guest
  // page, if it was in the delta.
  const std::vector<uint8_t>* PageContent(Gpfn gpfn) const;

  bool WriteToFile(const std::string& path) const;
  static std::optional<VmSnapshot> ReadFromFile(const std::string& path);

 private:
  VmSnapshotMeta meta_;
  std::map<Gpfn, std::vector<uint8_t>> pages_;
};

}  // namespace potemkin

#endif  // SRC_HV_SNAPSHOT_H_
