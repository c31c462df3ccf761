#include "src/hv/snapshot.h"

#include <cstdio>
#include <cstring>

#include "src/base/log.h"

namespace potemkin {

namespace {

// The magic names the layout, so a PKSN1 file (which ends with a disk-overlay
// section) is refused rather than misread.
constexpr char kMagic[8] = {'P', 'K', 'S', 'N', '2', 0, 0, 0};

void PutU32(std::FILE* f, uint32_t v) {
  uint8_t buf[4];
  for (int i = 0; i < 4; ++i) {
    buf[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  std::fwrite(buf, 1, 4, f);
}

void PutU64(std::FILE* f, uint64_t v) {
  uint8_t buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<uint8_t>(v >> (8 * i));
  }
  std::fwrite(buf, 1, 8, f);
}

bool GetU32(std::FILE* f, uint32_t* v) {
  uint8_t buf[4];
  if (std::fread(buf, 1, 4, f) != 4) {
    return false;
  }
  *v = 0;
  for (int i = 3; i >= 0; --i) {
    *v = (*v << 8) | buf[i];
  }
  return true;
}

bool GetU64(std::FILE* f, uint64_t* v) {
  uint8_t buf[8];
  if (std::fread(buf, 1, 8, f) != 8) {
    return false;
  }
  *v = 0;
  for (int i = 7; i >= 0; --i) {
    *v = (*v << 8) | buf[i];
  }
  return true;
}

}  // namespace

VmSnapshot VmSnapshot::Capture(const VirtualMachine& vm, TimePoint now) {
  VmSnapshot snapshot;
  snapshot.meta_.vm = vm.id();
  snapshot.meta_.name = vm.name();
  snapshot.meta_.ip = vm.ip().value();
  snapshot.meta_.taken_at_ns = now.nanos();
  snapshot.meta_.num_pages = vm.memory().num_pages();
  snapshot.meta_.infected = vm.infected();

  const AddressSpace& memory = vm.memory();
  memory.ForEachPrivatePage([&](Gpfn gpfn, FrameId frame) {
    (void)frame;
    std::vector<uint8_t> content(kPageSize);
    memory.ReadGuest(static_cast<uint64_t>(gpfn) * kPageSize,
                     std::span(content.data(), content.size()));
    snapshot.pages_.emplace(gpfn, std::move(content));
  });
  return snapshot;
}

const std::vector<uint8_t>* VmSnapshot::PageContent(Gpfn gpfn) const {
  auto it = pages_.find(gpfn);
  return it == pages_.end() ? nullptr : &it->second;
}

bool VmSnapshot::RestoreInto(VirtualMachine* vm) const {
  if (vm == nullptr || vm->memory().num_pages() != meta_.num_pages) {
    return false;
  }
  for (const auto& [gpfn, content] : pages_) {
    const auto result =
        vm->memory().WriteGuest(static_cast<uint64_t>(gpfn) * kPageSize,
                                std::span(content.data(), content.size()));
    if (result == MemAccessResult::kOutOfMemory) {
      return false;
    }
  }
  vm->set_infected(meta_.infected);
  return true;
}

bool VmSnapshot::WriteToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    PK_ERROR << "cannot write snapshot: " << path;
    return false;
  }
  std::fwrite(kMagic, 1, 8, f);
  PutU64(f, meta_.vm);
  PutU32(f, meta_.ip);
  PutU64(f, static_cast<uint64_t>(meta_.taken_at_ns));
  PutU32(f, meta_.num_pages);
  PutU32(f, meta_.infected ? 1 : 0);
  PutU32(f, static_cast<uint32_t>(meta_.name.size()));
  std::fwrite(meta_.name.data(), 1, meta_.name.size(), f);
  PutU32(f, static_cast<uint32_t>(pages_.size()));
  for (const auto& [gpfn, content] : pages_) {
    PutU32(f, gpfn);
    std::fwrite(content.data(), 1, kPageSize, f);
  }
  std::fclose(f);
  return true;
}

std::optional<VmSnapshot> VmSnapshot::ReadFromFile(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return std::nullopt;
  }
  char magic[8];
  if (std::fread(magic, 1, 8, f) != 8 || std::memcmp(magic, kMagic, 8) != 0) {
    std::fclose(f);
    return std::nullopt;
  }
  VmSnapshot snapshot;
  uint64_t vm_id = 0;
  uint64_t taken = 0;
  uint32_t ip = 0;
  uint32_t num_pages = 0;
  uint32_t infected = 0;
  uint32_t name_len = 0;
  if (!GetU64(f, &vm_id) || !GetU32(f, &ip) || !GetU64(f, &taken) ||
      !GetU32(f, &num_pages) || !GetU32(f, &infected) || !GetU32(f, &name_len) ||
      name_len > 4096) {
    std::fclose(f);
    return std::nullopt;
  }
  snapshot.meta_.vm = vm_id;
  snapshot.meta_.ip = ip;
  snapshot.meta_.taken_at_ns = static_cast<int64_t>(taken);
  snapshot.meta_.num_pages = num_pages;
  snapshot.meta_.infected = infected != 0;
  snapshot.meta_.name.resize(name_len);
  if (name_len > 0 && std::fread(snapshot.meta_.name.data(), 1, name_len, f) != name_len) {
    std::fclose(f);
    return std::nullopt;
  }
  uint32_t page_count = 0;
  if (!GetU32(f, &page_count)) {
    std::fclose(f);
    return std::nullopt;
  }
  for (uint32_t i = 0; i < page_count; ++i) {
    uint32_t gpfn = 0;
    std::vector<uint8_t> content(kPageSize);
    if (!GetU32(f, &gpfn) ||
        std::fread(content.data(), 1, kPageSize, f) != kPageSize) {
      std::fclose(f);
      return std::nullopt;
    }
    snapshot.pages_.emplace(gpfn, std::move(content));
  }
  std::fclose(f);
  return snapshot;
}

}  // namespace potemkin
