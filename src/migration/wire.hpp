// The Migration Managers' TCP connection.
//
// A `WireStream` wraps a network flow and keeps the FIFO of messages riding
// it (full pages, SWAPPED descriptors, the CPU state blob, the dirty
// bitmap). Delivery callbacks fire in send order once the receiver has the
// complete message — exactly the semantics of a byte stream.
//
// The run-length batched wire format: a *batch* send queues `items` equal
// payloads (one page or one descriptor each) as a single queue entry — the
// run header (first page + length + class) lives in the sender's completion
// state, not in extra wire bytes. As the flow drains, the batch's chunk
// callback fires with the number of items whose last byte has now arrived,
// preserving exactly the per-item delivery timing of `items` individual
// sends while costing one queue slot and zero heap allocations (callbacks
// are `InlineFunction`s, never `std::function`).
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <utility>

#include "net/network.hpp"
#include "util/inline_function.hpp"

namespace agile::migration {

class WireStream {
 public:
  /// Batch completion callback: invoked with the number of additional items
  /// (>= 1) fully delivered, in send order, possibly several times per batch.
  using ChunkFn = InlineFunction<void(std::uint64_t)>;

  /// `trace_id` is the trace-lane of the owning migration's VM (0 = global).
  /// `trace_component` names the trace thread ("wire" for the primary lane;
  /// a StreamGroup gives secondary lanes their own component so each stream
  /// shows up as its own lane in the Chrome export). Must be a string with
  /// static storage duration — the trace recorder stores the pointer.
  WireStream(net::Network* network, net::NodeId src, net::NodeId dst,
             std::uint64_t trace_id = 0, const char* trace_component = "wire");
  ~WireStream();

  WireStream(const WireStream&) = delete;
  WireStream& operator=(const WireStream&) = delete;

  /// Queues a message of `bytes`; `on_delivered` fires when the last byte
  /// reaches the receiver. Wraps the callable into the batch path directly
  /// (a one-item batch), so the adapter costs no extra storage.
  template <typename F>
  void send(Bytes bytes, F on_delivered) {
    send_batch(1, bytes,
               [fn = std::move(on_delivered)](std::uint64_t) mutable { fn(); });
  }
  /// Fire-and-forget single message.
  void send(Bytes bytes, std::nullptr_t) { send_batch(1, bytes, nullptr); }

  /// Queues `items` back-to-back messages of `item_bytes` each as one queue
  /// entry. `on_items(n)` fires as each item's last byte arrives (batched
  /// per network-delivery quantum): timing is identical to `items` separate
  /// `send` calls.
  void send_batch(std::uint64_t items, Bytes item_bytes, ChunkFn on_items);

  /// Bytes queued but not yet delivered.
  Bytes backlog() const { return network_->backlog(flow_); }

  /// Total bytes delivered so far.
  Bytes delivered_bytes() const { return delivered_; }

  /// Total bytes ever offered to the flow (delivered + in flight).
  Bytes offered_bytes() const { return offered_; }

  bool idle() const { return queue_.empty(); }
  /// Queue entries in flight (a batch of any length counts once).
  std::size_t queued_messages() const { return queue_.size(); }
  /// Items (pages, descriptors, single messages) whose completion callback
  /// has not fired yet.
  std::uint64_t items_in_flight() const {
    return items_offered_ - items_completed_;
  }

  /// Installs a hook invoked once at the end of every delivery quantum (after
  /// all chunk callbacks of that quantum have fired). A StreamGroup uses this
  /// to re-evaluate cross-lane fences and run the group byte-conservation
  /// auditor. At most one listener; pass nullptr to clear.
  void set_progress_listener(InlineFunction<void()> listener) {
    progress_listener_ = std::move(listener);
  }

 private:
  void on_progress(Bytes n);

  struct Message {
    Bytes item_bytes = 0;         ///< Wire size of one item.
    std::uint64_t items_left = 0; ///< Items not yet fully delivered.
    Bytes partial = 0;        ///< Bytes of the current item already arrived.
    ChunkFn on_items;
  };

  /// Deep auditor (O(1)): byte conservation across the stream and its
  /// network flow — everything offered is either delivered or still in the
  /// flow backlog, the delivered total equals the per-item completion
  /// accounting (batch delivery is tick-equivalent to per-item sends), and
  /// the FIFO never over-delivers. Called per delivery quantum when
  /// `audit::enabled()`.
  void audit_conservation() const;

  net::Network* network_;
  net::FlowId flow_;
  std::uint64_t trace_id_ = 0;
  const char* trace_component_ = "wire";
  bool busy_span_open_ = false;  ///< A "wire/busy" trace span is open.
  InlineFunction<void()> progress_listener_;
  std::deque<Message> queue_;
  Bytes delivered_ = 0;
  Bytes offered_ = 0;
  std::uint64_t items_offered_ = 0;
  std::uint64_t items_completed_ = 0;
  Bytes items_completed_bytes_ = 0;  ///< Wire bytes of fully delivered items.
};

}  // namespace agile::migration
