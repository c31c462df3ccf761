// Minimal per-guest TCP server-side state machine.
//
// The default guest model answers payload-bearing segments permissively (good
// enough for single-packet exploit studies and cheap at farm scale). For
// fidelity-sensitive experiments, `GuestOsConfig::strict_tcp` routes all TCP
// segments through this stack instead: services then behave like a real
// accept()ing server — payload is delivered only on ESTABLISHED connections, SYNs
// get exact sequence numbers, out-of-state segments draw RSTs, and connection
// state occupies (and therefore bounds) guest resources.
//
// States follow the server-side subset of RFC 793:
//   LISTEN -> SYN_RCVD -> ESTABLISHED -> (FIN) CLOSE_WAIT -> CLOSED
// with RST tearing down any state.
#ifndef SRC_GUEST_TCP_STACK_H_
#define SRC_GUEST_TCP_STACK_H_

#include <cstdint>
#include <unordered_map>

#include "src/base/rng.h"
#include "src/base/time_types.h"
#include "src/net/packet.h"

namespace potemkin {

enum class TcpServerState {
  kSynReceived,
  kEstablished,
  kCloseWait,
};

// What the guest should do with an incoming segment.
enum class SegmentAction {
  kReplySynAck,        // accept the connection (reply with decision seq/ack)
  kReplyRst,           // refuse / out of state
  kEstablished,        // handshake completed with no data: the server's accept()
                       // fires here (banner-first personas send their greeting)
  kDeliverPayload,     // connection established: hand payload to the service
  kReplyFinAck,        // peer closed; acknowledge
  kDeliverPayloadAndClose,  // data rode the FIN: deliver it, then FIN|ACK
  kIgnore,             // duplicate/benign segment, no action
};

struct SegmentDecision {
  SegmentAction action = SegmentAction::kIgnore;
  uint32_t reply_seq = 0;
  uint32_t reply_ack = 0;
  // RFC 793 RST form (only meaningful for kReplyRst): a reset answering a
  // segment that carried an ACK takes its seq from that ACK and sets no ACK
  // flag of its own; a reset answering a no-ACK segment uses seq=0 and must
  // acknowledge every octet of the offending segment (ACK flag set).
  bool rst_has_ack = true;
};

struct TcpStackStats {
  uint64_t connections_accepted = 0;
  uint64_t connections_established = 0;
  uint64_t connections_closed = 0;
  uint64_t payload_segments_delivered = 0;
  uint64_t out_of_state_segments = 0;
  uint64_t resets_sent = 0;
  uint64_t evictions = 0;
};

class GuestTcpStack {
 public:
  explicit GuestTcpStack(Rng rng, size_t max_connections = 4096);

  // Processes one inbound segment addressed to a local port. `has_listener`
  // states whether a service listens on the destination port.
  SegmentDecision OnSegment(const PacketView& view, bool has_listener,
                            TimePoint now);

  // Test oracles, reached by no program.
  size_t connection_count() const { return connections_.size(); }
  const TcpStackStats& stats() const { return stats_; }

  // Reclaims connections idle past `timeout`. Returns how many were dropped.
  size_t ExpireIdle(TimePoint now, Duration timeout);

 private:
  struct ConnectionKey {
    uint32_t peer_ip = 0;
    uint16_t peer_port = 0;
    uint16_t local_port = 0;
    bool operator==(const ConnectionKey&) const = default;
  };
  struct KeyHash {
    size_t operator()(const ConnectionKey& key) const noexcept {
      uint64_t h = key.peer_ip;
      h = h * 0x9e3779b97f4a7c15ull + ((static_cast<uint64_t>(key.peer_port) << 16) |
                                       key.local_port);
      h ^= h >> 32;
      return static_cast<size_t>(h);
    }
  };
  struct Connection {
    TcpServerState state = TcpServerState::kSynReceived;
    uint32_t local_seq = 0;   // next sequence number we would send
    uint32_t peer_next = 0;   // next sequence number expected from the peer
    TimePoint last_activity;
  };

  void EvictOldest();

  Rng rng_;
  size_t max_connections_;
  std::unordered_map<ConnectionKey, Connection, KeyHash> connections_;
  TcpStackStats stats_;
};

}  // namespace potemkin

#endif  // SRC_GUEST_TCP_STACK_H_
