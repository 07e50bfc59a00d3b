// Multi-stream migration data path.
//
// A `StreamGroup` fans one migration's traffic across `num_streams` parallel
// `WireStream` lanes sharing the link — the PMigrate-KVM master/slave split:
// a producer (the engine's send loop) hands whole runs to consumer lanes in
// deterministic round-robin order. Each run (one `send_batch`) lives on
// exactly one FIFO lane, so per-run delivery order — the property every
// engine's completion callbacks rely on — is preserved; only *across* runs
// may delivery interleave, which the engines tolerate (runs cover disjoint
// page ranges and installs are state-idempotent).
//
// Cross-lane ordering is restored only where it matters: `send_fenced` (the
// CPU-state blob, the agile flip message) delays its completion callback
// until every lane has drained everything queued before the fence — the
// multi-stream equivalent of "the CPU state was queued behind all pages on
// the same TCP connection".
//
// With `num_streams == 1` the group degenerates to a single WireStream with
// identical flow, timing and trace output: the golden tests pin that.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "migration/wire.hpp"

namespace agile::migration {

class StreamGroup {
 public:
  using ChunkFn = WireStream::ChunkFn;

  /// Hard ceiling on lanes per group: keeps the per-lane trace component
  /// table static and matches the useful range (PMigrate saturated a 10 Gbps
  /// NIC well below this).
  static constexpr std::uint32_t kMaxStreams = 16;

  StreamGroup(net::Network* network, net::NodeId src, net::NodeId dst,
              std::uint64_t trace_id = 0, std::uint32_t num_streams = 1);

  StreamGroup(const StreamGroup&) = delete;
  StreamGroup& operator=(const StreamGroup&) = delete;

  /// Single message on the next round-robin lane; `on_delivered` fires when
  /// its last byte arrives (per-lane FIFO order).
  template <typename F>
  void send(Bytes bytes, F on_delivered) {
    next_lane().send(bytes, std::move(on_delivered));
  }
  void send(Bytes bytes, std::nullptr_t) { next_lane().send(bytes, nullptr); }

  /// Dispatches one run of `items` equal payloads to the next round-robin
  /// lane. Chunk callbacks fire in item order within the run.
  void send_batch(std::uint64_t items, Bytes item_bytes, ChunkFn on_items);

  /// Barrier send: queues `bytes` on the next round-robin lane and fires
  /// `on_delivered` only once (a) the fence message itself has arrived and
  /// (b) every lane has delivered everything offered before the fence. With
  /// one lane this is exactly `send`. No other sends may be issued while a
  /// fence is pending (the engines never do — they stop pushing until the
  /// switchover/flip callback runs).
  void send_fenced(Bytes bytes, InlineFunction<void()> on_delivered);

  /// Aggregates over all lanes.
  Bytes backlog() const;
  Bytes delivered_bytes() const;
  Bytes offered_bytes() const;
  bool idle() const;
  std::size_t queued_messages() const;
  std::uint64_t items_in_flight() const;

  std::size_t lane_count() const { return lanes_.size(); }
  const WireStream& lane(std::size_t k) const { return *lanes_[k]; }

 private:
  /// Round-robin dispatch point; also enforces the no-send-while-fenced rule.
  WireStream& next_lane();

  /// Invoked by every lane at the end of each delivery quantum.
  void on_lane_progress();
  void maybe_fire_fence();

  /// Group-level byte-conservation auditor (satellite of the per-lane
  /// auditor): with N flows sharing one link, per-quantum fair-share rounding
  /// must still conserve bytes across the whole group. Runs when
  /// `audit::enabled()`: exactly at send points (stable, between network
  /// quanta) and as a no-over-delivery bound at mid-quantum delivery
  /// callbacks, where sibling-lane notifications may still be pending.
  void audit_group(bool exact) const;

  std::vector<std::unique_ptr<WireStream>> lanes_;
  std::size_t next_lane_ = 0;
  bool fence_pending_ = false;
  bool fence_delivered_ = false;
  /// Per-lane offered_bytes() snapshot taken when the fence was queued; the
  /// fence is satisfied once every lane's delivered_bytes() reaches it.
  std::vector<Bytes> fence_floor_;
  InlineFunction<void()> fence_fn_;
};

}  // namespace agile::migration
