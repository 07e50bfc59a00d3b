#include "migration/stream_group.hpp"

#include "util/check.hpp"

namespace agile::migration {
namespace {

// Trace components for the wire lanes. Lane 0 keeps the plain "wire" thread
// so single-stream traces are byte-identical to the pre-StreamGroup output;
// extra lanes get their own thread in the VM's trace process. Static storage:
// the trace recorder keeps the pointers.
const char* lane_component(std::size_t lane) {
  static constexpr const char* kLane[] = {
      "wire",     "wire.s1",  "wire.s2",  "wire.s3",
      "wire.s4",  "wire.s5",  "wire.s6",  "wire.s7",
      "wire.s8",  "wire.s9",  "wire.s10", "wire.s11",
      "wire.s12", "wire.s13", "wire.s14", "wire.s15",
  };
  static_assert(sizeof(kLane) / sizeof(kLane[0]) == StreamGroup::kMaxStreams);
  return kLane[lane < StreamGroup::kMaxStreams ? lane
                                               : StreamGroup::kMaxStreams - 1];
}

}  // namespace

StreamGroup::StreamGroup(net::Network* network, net::NodeId src,
                         net::NodeId dst, std::uint64_t trace_id,
                         std::uint32_t num_streams) {
  AGILE_CHECK_MSG(num_streams >= 1 && num_streams <= kMaxStreams,
                  "num_streams out of range");
  lanes_.reserve(num_streams);
  for (std::uint32_t k = 0; k < num_streams; ++k) {
    lanes_.push_back(std::make_unique<WireStream>(network, src, dst, trace_id,
                                                  lane_component(k)));
    lanes_.back()->set_progress_listener([this] { on_lane_progress(); });
  }
}

WireStream& StreamGroup::next_lane() {
  AGILE_CHECK_MSG(!fence_pending_,
                  "send while a stream-group fence is pending");
  // Engines send between network quanta, so every delivery callback of the
  // previous quantum has run: conservation must hold exactly here.
  if (audit::enabled()) audit_group(/*exact=*/true);
  WireStream& lane = *lanes_[next_lane_];
  next_lane_ = (next_lane_ + 1) % lanes_.size();
  return lane;
}

void StreamGroup::send_batch(std::uint64_t items, Bytes item_bytes,
                             ChunkFn on_items) {
  WireStream& lane = next_lane();
  lane.send_batch(items, item_bytes, std::move(on_items));
  AGILE_DCHECK_LE(lane.delivered_bytes(), lane.offered_bytes())
      << "lane delivered more than was ever offered";
}

void StreamGroup::send_fenced(Bytes bytes, InlineFunction<void()> on_delivered) {
  WireStream& lane = next_lane();
  fence_pending_ = true;
  fence_delivered_ = false;
  fence_fn_ = std::move(on_delivered);
  fence_floor_.resize(lanes_.size());
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    fence_floor_[k] = lanes_[k]->offered_bytes();
  }
  // The fence completion runs inside the lane's own chunk callback, so with
  // one lane (or with all other lanes already drained) the callback fires at
  // exactly the point a plain `send` would have fired it.
  lane.send(bytes, [this] {
    fence_delivered_ = true;
    maybe_fire_fence();
  });
}

void StreamGroup::maybe_fire_fence() {
  if (!fence_pending_ || !fence_delivered_) return;
  for (std::size_t k = 0; k < lanes_.size(); ++k) {
    if (lanes_[k]->delivered_bytes() < fence_floor_[k]) return;
  }
  fence_pending_ = false;
  fence_delivered_ = false;
  InlineFunction<void()> fn = std::move(fence_fn_);
  if (fn) fn();
}

void StreamGroup::on_lane_progress() {
  if (audit::enabled()) audit_group(/*exact=*/false);
  maybe_fire_fence();
}

void StreamGroup::audit_group(bool exact) const {
  Bytes offered = 0;
  Bytes delivered = 0;
  Bytes in_flight = 0;
  for (const auto& lane : lanes_) {
    offered += lane->offered_bytes();
    delivered += lane->delivered_bytes();
    in_flight += lane->backlog();
  }
  if (exact) {
    // Per-quantum fair-share rounding across N flows on one link must still
    // conserve bytes for the group as a whole.
    AGILE_CHECK_S(offered == delivered + in_flight)
        << "stream group leaks bytes: offered " << offered << ", delivered "
        << delivered << ", in flight " << in_flight;
  } else {
    // Mid-quantum observation (a lane's delivery callback): the network
    // decrements every flow's backlog before it runs any callback, so a
    // sibling lane's delivery may not be notified yet — bytes can transiently
    // sit in neither column, but the group must never OVER-deliver.
    AGILE_CHECK_S(delivered + in_flight <= offered)
        << "stream group over-delivered: offered " << offered << ", delivered "
        << delivered << ", in flight " << in_flight;
  }
}

Bytes StreamGroup::backlog() const {
  Bytes total = 0;
  for (const auto& lane : lanes_) total += lane->backlog();
  return total;
}

Bytes StreamGroup::delivered_bytes() const {
  Bytes total = 0;
  for (const auto& lane : lanes_) total += lane->delivered_bytes();
  return total;
}

Bytes StreamGroup::offered_bytes() const {
  Bytes total = 0;
  for (const auto& lane : lanes_) total += lane->offered_bytes();
  return total;
}

bool StreamGroup::idle() const {
  for (const auto& lane : lanes_) {
    if (!lane->idle()) return false;
  }
  return true;
}

std::size_t StreamGroup::queued_messages() const {
  std::size_t total = 0;
  for (const auto& lane : lanes_) total += lane->queued_messages();
  return total;
}

std::uint64_t StreamGroup::items_in_flight() const {
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->items_in_flight();
  return total;
}

}  // namespace agile::migration
