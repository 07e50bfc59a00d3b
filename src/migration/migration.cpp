#include "migration/migration.hpp"

#include <algorithm>
#include <cmath>

#include "trace/trace.hpp"
#include "util/log.hpp"

namespace agile::migration {

const char* compression_name(Compression c) {
  switch (c) {
    case Compression::kOff: return "off";
    case Compression::kFast: return "fast";
    case Compression::kHeavy: return "heavy";
  }
  return "?";
}

MigrationManager::MigrationManager(host::Cluster* cluster,
                                   MigrationParams params,
                                   MigrationConfig config)
    : cluster_(cluster), params_(params), config_(config) {
  AGILE_CHECK(cluster_ != nullptr);
  AGILE_CHECK(params_.machine != nullptr);
  AGILE_CHECK(params_.source != nullptr && params_.dest != nullptr);
  AGILE_CHECK(params_.dest_swap != nullptr);
  AGILE_CHECK(params_.dest_reservation > 0);
  AGILE_CHECK_MSG(params_.source->has_vm(params_.machine),
                  "VM is not running on the source host");
  AGILE_CHECK_MSG(config_.num_streams >= 1 &&
                      config_.num_streams <= StreamGroup::kMaxStreams,
                  "num_streams out of range");
  AGILE_CHECK(config_.compress_fast_ratio > 0 && config_.compress_fast_ratio <= 1.0);
  AGILE_CHECK(config_.compress_heavy_ratio > 0 && config_.compress_heavy_ratio <= 1.0);
  // Resolve the compression model once: the page body shrinks by the class
  // ratio (header framing does not compress), the sender's thread pays the
  // class cost on top of the copy cost. Off keeps both identical to the
  // uncompressed path, bit for bit.
  double ratio = 1.0;
  SimTime compress_cost = 0;
  switch (config_.compression) {
    case Compression::kOff:
      break;
    case Compression::kFast:
      ratio = config_.compress_fast_ratio;
      compress_cost = config_.compress_fast_cost;
      break;
    case Compression::kHeavy:
      ratio = config_.compress_heavy_ratio;
      compress_cost = config_.compress_heavy_cost;
      break;
  }
  Bytes body = config_.compression == Compression::kOff
                   ? kPageSize
                   : static_cast<Bytes>(
                         std::ceil(static_cast<double>(kPageSize) * ratio));
  wire_page_bytes_ = config_.page_header + body;
  page_send_cost_ = config_.page_copy_cost + compress_cost;
}

void MigrationManager::account_full_pages(std::uint64_t n) {
  metrics_.pages_sent_full += n;
  metrics_.bytes_transferred += n * wire_page_bytes_;
  if (wire_page_bytes_ == full_page_bytes()) return;  // compression off
  metrics_.compressed_bytes_saved += n * (full_page_bytes() - wire_page_bytes_);
  // Sampled only while compressing, so default traces stay byte-identical.
  AGILE_TRACE_COUNTER("wire", "compressed_bytes_saved", trace_id(),
                      metrics_.compressed_bytes_saved);
}

bool MigrationManager::zero_elidable(PageIndex p) const {
  return source_mem_->is_zero_page(p);
}

bool MigrationManager::send_owed(Bitmap& owed, std::uint64_t& cursor,
                                 SimTime& budget, std::uint32_t tick) {
  while (budget > 0) {
    const Bytes backlog = stream_->backlog();
    if (backlog >= config_.send_window) return false;  // TCP window full
    const Bitmap::Run run = owed.next_set_run(cursor);
    if (run.empty()) return true;
    const PageIndex p = run.begin;
    PageIndex q = p;
    Payload payload = Payload::kDescriptor;
    if (source_mem_->state(p) == mem::PageState::kUntouched) {
      // Descriptor run: every page costs the same and nothing can change a
      // page's class mid-run (descriptors trigger no swap-ins), so the whole
      // run collapses into one batch send, capped by the thread budget
      // (ceil: the per-page loop sent while budget was still positive) and
      // the remaining send window.
      std::uint64_t n = source_mem_->state_run_end(p, run.end) - p;
      n = std::min(n, (static_cast<std::uint64_t>(budget) +
                       config_.page_copy_cost - 1) /
                          config_.page_copy_cost);
      n = std::min(n, (config_.send_window - backlog +
                       config_.descriptor_bytes - 1) /
                          config_.descriptor_bytes);
      q = p + n;
      budget -= static_cast<SimTime>(n) * config_.page_copy_cost;
    } else if (zero_elidable(p)) {
      // Zero-page elision run: touched pages whose content is all zeroes
      // travel as descriptors — the destination installs them as untouched
      // (the canonical zero page). Classification is read-only, so nothing
      // can change a page's class mid-run; swapped zero pages skip the
      // swap-in entirely (the mark is authoritative, no data is read).
      while (q < run.end && budget > 0 &&
             backlog + (q - p) * config_.descriptor_bytes < config_.send_window &&
             zero_elidable(q)) {
        budget -= config_.page_copy_cost;
        ++q;
      }
      metrics_.pages_zero_elided += q - p;
    } else {
      // Full-copy stretch (resident or swapped pages). A swap-in can evict
      // other pages of this very VM — possibly inside this run — so class and
      // cost are re-read page by page; the wire messages still coalesce into
      // a single batch, since every one is a full-page copy with the same
      // delivery semantics.
      payload = Payload::kFull;
      while (q < run.end && budget > 0 &&
             backlog + (q - p) * wire_page_bytes() < config_.send_window) {
        const mem::PageState st = source_mem_->state(q);
        AGILE_CHECK_MSG(st != mem::PageState::kRemote,
                        "pushing an already-released page");
        if (st == mem::PageState::kUntouched) break;
        if (zero_elidable(q)) break;  // next stretch elides to a descriptor
        SimTime spent = page_send_cost();
        if (st == mem::PageState::kSwapped) {
          // Must be brought back into memory before it can be sent (and doing
          // so can evict other pages of this very VM).
          spent += source_mem_->swap_in_for_transfer(q, tick);
          if (counts_source_swap_ins()) ++metrics_.pages_swapped_in_at_source;
        }
        budget -= spent;
        ++q;
      }
    }
    const std::uint64_t n = q - p;
    Bytes item = config_.descriptor_bytes;
    if (payload == Payload::kFull) {
      account_full_pages(n);
      item = wire_page_bytes();
    } else {
      metrics_.pages_sent_descriptor += n;
      metrics_.bytes_transferred += n * item;
    }
    owed.clear_range(p, q);
    cursor = q;
    stream_->send_batch(n, item,
                        [this, p = p, payload](std::uint64_t k) mutable {
                          deliver(p, k, payload);
                          p += k;
                        });
  }
  return false;
}

void MigrationManager::deliver(PageIndex p, std::uint64_t n, Payload payload) {
  for (const PageIndex end = p + n; p < end; ++p) {
    AGILE_DCHECK(owed_.test(p)) << "push delivered page " << p
                                << " outside the owed set";
    if (received_.test(p)) {
      // A demand fault overtook this pushed copy; the receiver discards it.
      ++metrics_.duplicate_pages;
    } else {
      received_.set(p);
      // Untouched and zero-elided pages both install as the canonical zero
      // page.
      if (payload == Payload::kDescriptor) {
        dest_mem_->install_untouched(p);
      } else {
        dest_mem_->install_resident(p, cluster_->tick_index());
      }
    }
    source_mem_->release_page(p);  // progressive source memory relief
  }
  // Checked once per chunk: the wire counts the whole chunk as delivered, so
  // the completion audit's in-flight count holds only once all of it landed.
  maybe_finish_push();
}

void MigrationManager::start_push(int push_phase) {
  AGILE_CHECK(!pushing_ && owed_.size() == page_count());
  pushing_ = true;
  unsent_ = owed_;
  received_.reset(page_count(), false);
  push_cursor_ = 0;
  sent_before_push_ = metrics_.pages_sent_full + metrics_.pages_sent_descriptor;
  AGILE_TRACE_SPAN_BEGIN("migration", "push", trace_id());
  params_.machine->set_remote_fault_handler(
      [this](PageIndex p, bool, std::uint32_t tick) {
        return serve_fault(p, tick);
      });
  set_phase(push_phase, "push");
  maybe_finish_push();  // e.g. a write-free Agile live round owes nothing
}

void MigrationManager::push_quantum(SimTime dt, std::uint32_t tick) {
  // A drained set is simply done sending: completion fires on the last
  // delivery or demand fault.
  spend_quantum(dt, [&](SimTime budget) {
    send_owed(unsent_, push_cursor_, budget, tick);
    return budget;
  });
}

SimTime MigrationManager::serve_fault(PageIndex p, std::uint32_t tick) {
  // Only owed pages can still be kRemote at the destination: Agile's cold
  // pages were installed as locally swapped and take the ordinary swap-in
  // path against the per-VM device.
  AGILE_CHECK_MSG(owed_.test(p), "remote fault outside the owed set");
  AGILE_CHECK(!received_.test(p));
  SimTime latency = config_.fault_overhead;
  net::Network& net = cluster_->network();
  net::NodeId dst = params_.dest->node();
  net::NodeId src = params_.source->node();

  mem::PageState st = source_mem_->state(p);
  AGILE_CHECK_MSG(st != mem::PageState::kRemote, "fault on a released page");
  const bool zero = zero_elidable(p);  // answered by descriptor, no data read
  if (st == mem::PageState::kSwapped && !zero) {
    // The source must read the page off its swap device before it can
    // answer — on a memory-constrained source, the paper's post-copy
    // degradation mechanism.
    latency += source_mem_->swap_in_for_transfer(p, tick, /*sequential=*/false);
    st = mem::PageState::kResident;
  }
  if (st == mem::PageState::kUntouched || zero) {
    latency += net.rpc_latency(dst, src, config_.descriptor_bytes);
    net.consume_background(dst, src, config_.descriptor_bytes);
    net.consume_background(src, dst, config_.descriptor_bytes);
    metrics_.bytes_transferred += config_.descriptor_bytes;
    if (zero) ++metrics_.pages_zero_elided;
    dest_mem_->install_untouched(p);
  } else {
    latency += net.rpc_latency(dst, src, full_page_bytes());
    net.consume_background(dst, src, config_.descriptor_bytes);  // request
    net.consume_background(src, dst, full_page_bytes());         // response
    metrics_.bytes_transferred += full_page_bytes();
    dest_mem_->install_resident(p, tick);
  }
  unsent_.clear(p);
  received_.set(p);
  ++metrics_.pages_demand_served;
  AGILE_TRACE_INSTANT("migration", "demand_fault", trace_id(),
                      static_cast<double>(p));
  AGILE_LOG_EVERY_N(kDebug, 1000, "%s %s: %llu demand faults served",
                    technique(), params_.machine->name().c_str(),
                    static_cast<unsigned long long>(metrics_.pages_demand_served));
  source_mem_->release_page(p);
  maybe_finish_push();
  return latency;
}

void MigrationManager::maybe_finish_push() {
  if (!pushing_ || received_.count() != owed_.count()) return;
  if (audit::enabled()) {
    // Exactly once: every page message since the flip (push or demand serve)
    // is the first copy of an owed page, a duplicate (a push a demand fault
    // overtook), or such a push still on the wire — everything the wire
    // carries after the flip is a push, and one in flight now lands as a
    // duplicate after completion.
    const std::uint64_t messages =
        metrics_.pages_sent_full + metrics_.pages_sent_descriptor -
        sent_before_push_ + metrics_.pages_demand_served;
    const std::uint64_t in_flight = stream_->items_in_flight();
    AGILE_CHECK_S(messages ==
                  owed_.count() + metrics_.duplicate_pages + in_flight)
        << "push does not cover the owed set exactly once: " << messages
        << " page messages since the flip vs owed " << owed_.count()
        << " + dup " << metrics_.duplicate_pages << " + in flight "
        << in_flight;
    AGILE_CHECK_S(unsent_.none())
        << "finishing with " << unsent_.count() << " unsent pages";
    received_.deep_audit();
  }
  pushing_ = false;
  set_phase(phase_code() + 1, "done");
  AGILE_TRACE_SPAN_END("migration", "push", trace_id());
  params_.machine->clear_remote_fault_handler();
  // Reclaim what the source still holds: frames, swap-cache copies and (for
  // Agile) re-evicted dirty pages' slots — the destination references none
  // of them.
  source_mem_->teardown(/*free_slots=*/true);
  finish();
}

void MigrationManager::set_phase(int code, const char* name) {
  if (phase_code_ == code) return;
  phase_code_ = code;
  AGILE_TRACE_INSTANT("migration", name, trace_id(),
                      static_cast<double>(code));
}

stats::MigrationObservation MigrationManager::sample_health(
    SimTime now) const {
  stats::MigrationObservation obs;
  obs.now = now;
  obs.bytes_transferred = metrics_.bytes_transferred;
  obs.pages_remote = dest_mem_ != nullptr ? dest_mem_->remote_pages()
                                          : page_count();
  obs.pages_owed = pages_owed();
  obs.backlog_bytes = wire_backlog();
  obs.wire_page_bytes = wire_page_bytes_;
  obs.cpu_state_bytes = config_.cpu_state_bytes;
  obs.switched_over = metrics_.switchover_time >= 0;
  obs.downtime_usec = metrics_.downtime;
  return obs;
}

MigrationManager::~MigrationManager() {
  if (on_destroy_) on_destroy_(this);
  if (hook_id_ != 0) cluster_->remove_hook(hook_id_);
}

void MigrationManager::start() {
  AGILE_CHECK_MSG(!started_, "migration already started");
  started_ = true;
  metrics_.start_time = cluster_->simulation().now();

  AGILE_TRACE_SPAN_BEGIN("migration", "migrate", trace_id());

  source_mem_ = &params_.machine->memory();

  mem::GuestMemoryConfig dest_cfg;
  dest_cfg.size = params_.machine->config().memory;
  dest_cfg.reservation = params_.dest_reservation;
  dest_mem_owned_ = std::make_unique<mem::GuestMemory>(
      dest_cfg, params_.dest_swap,
      cluster_->make_rng(params_.machine->name() + "/dest-mem"));
  dest_mem_owned_->mark_all_remote();
  dest_mem_ = dest_mem_owned_.get();
  // The destination process's memory traces on the same lane as the VM but a
  // separate track, so source evictions and dest installs don't interleave.
  dest_mem_owned_->set_trace_identity("mem.dest", trace_id());

  stream_ = std::make_unique<StreamGroup>(
      &cluster_->network(), params_.source->node(), params_.dest->node(),
      trace_id(), config_.num_streams);

  hook_id_ = cluster_->add_control_hook(
      [this](SimTime now, SimTime dt, std::uint32_t tick) {
        if (metrics_.completed) return;
        if (pushing_) {
          push_quantum(dt, tick);
        } else {
          on_tick(now, dt, tick);
        }
      });

  AGILE_LOG_INFO("%s migration of %s: %s -> %s starting", technique(),
                 params_.machine->name().c_str(),
                 params_.source->name().c_str(), params_.dest->name().c_str());
}

void MigrationManager::begin_suspend() {
  AGILE_CHECK(suspend_time_ < 0);
  params_.machine->suspend();
  suspend_time_ = cluster_->simulation().now();
}

void MigrationManager::complete_switchover() {
  AGILE_CHECK_MSG(suspend_time_ >= 0, "switchover without suspension");
  AGILE_CHECK(metrics_.switchover_time < 0);

  vm::VirtualMachine* machine = params_.machine;
  params_.source->detach_vm(machine);
  params_.dest->attach_vm(machine, params_.load);
  // The destination process's memory becomes the VM's memory; the source
  // process's copy stays with the manager to serve push/demand traffic.
  source_mem_owned_ = machine->swap_memory(std::move(dest_mem_owned_));
  source_mem_ = source_mem_owned_.get();
  machine->resume();

  SimTime now = cluster_->simulation().now();
  metrics_.switchover_time = now;
  metrics_.downtime = now - suspend_time_;
  AGILE_TRACE_INSTANT("migration", "switchover", trace_id(),
                      static_cast<double>(metrics_.downtime));
  AGILE_LOG_INFO("%s migration of %s: resumed at destination (downtime %.0f ms)",
                 technique(), machine->name().c_str(),
                 static_cast<double>(metrics_.downtime) / 1000.0);
  if (on_switchover_) on_switchover_();
}

void MigrationManager::finish() {
  AGILE_CHECK(!metrics_.completed);
  metrics_.completed = true;
  metrics_.end_time = cluster_->simulation().now();
  if (hook_id_ != 0) {
    cluster_->remove_hook(hook_id_);
    hook_id_ = 0;
  }
  // `stream_` stays alive until the manager is destroyed: finish() is often
  // reached from inside one of the stream's own delivery callbacks, and late
  // duplicate deliveries may still be in flight.
  AGILE_TRACE_SPAN_END("migration", "migrate", trace_id());
  AGILE_LOG_INFO("%s migration of %s: complete in %.1f s (%.1f MiB on wire)",
                 technique(), params_.machine->name().c_str(),
                 to_seconds(metrics_.total_time()),
                 to_mib(metrics_.bytes_transferred));
}

}  // namespace agile::migration
