// Packet trace recording and replay.
//
// The paper drove Potemkin with live traffic from a /16 network telescope. We
// substitute a compact on-disk trace format ("PKT1") plus a synthetic generator
// (src/malware/radiation.h); traces captured from one run can be replayed
// deterministically into another.
#ifndef SRC_NET_TRACE_H_
#define SRC_NET_TRACE_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/base/time_types.h"
#include "src/net/ipv4.h"
#include "src/net/packet.h"

namespace potemkin {

// One observed packet header (enough to regenerate an equivalent wire packet).
struct TraceRecord {
  TimePoint time;
  Ipv4Address src;
  Ipv4Address dst;
  IpProto proto = IpProto::kTcp;
  uint16_t src_port = 0;
  uint16_t dst_port = 0;
  uint16_t wire_size = 0;  // original frame size in bytes
  uint8_t tcp_flags = 0;

  bool operator==(const TraceRecord&) const = default;
};

// Builds a replayable wire packet from a trace record (payload is zero-filled to
// the recorded size; TCP sequence numbers are synthesized deterministically).
Packet PacketFromRecord(const TraceRecord& record, MacAddress src_mac,
                        MacAddress dst_mac);

class TraceWriter {
 public:
  explicit TraceWriter(const std::string& path);
  ~TraceWriter();
  TraceWriter(const TraceWriter&) = delete;
  TraceWriter& operator=(const TraceWriter&) = delete;

  void Append(const TraceRecord& record);
  // Flushes and finalizes the record count in the header.
  void Close();

 private:
  std::FILE* file_ = nullptr;
  uint64_t count_ = 0;
};

class TraceReader {
 public:
  explicit TraceReader(const std::string& path);
  ~TraceReader();
  TraceReader(const TraceReader&) = delete;
  TraceReader& operator=(const TraceReader&) = delete;

  bool ok() const { return file_ != nullptr; }
  uint64_t record_count() const { return count_; }
  // Returns false at end of trace.
  bool Next(TraceRecord* out);

  // Convenience: reads an entire trace into memory.
  static std::vector<TraceRecord> ReadAll(const std::string& path);

 private:
  std::FILE* file_ = nullptr;
  uint64_t count_ = 0;
  uint64_t read_ = 0;
};

}  // namespace potemkin

#endif  // SRC_NET_TRACE_H_
