#include "mem/guest_memory.hpp"

#include <algorithm>

#include "trace/trace.hpp"

namespace agile::mem {

namespace {
constexpr std::uint32_t kNoPos = static_cast<std::uint32_t>(-1);
constexpr SimTime kMinorFaultCost = 1;  // µs: zero-fill allocation
}  // namespace

GuestMemory::GuestMemory(const GuestMemoryConfig& config,
                         swap::SwapDevice* swap_device, Rng rng)
    : config_(config),
      page_count_(pages_for(config.size)),
      reservation_pages_(std::max<std::uint64_t>(1, config.reservation / kPageSize)),
      swap_(swap_device),
      rng_(rng) {
  AGILE_CHECK(page_count_ > 0);
  AGILE_CHECK(swap_ != nullptr);
  AGILE_CHECK(config_.eviction_samples > 0);
  AGILE_CHECK(config_.zero_page_fraction >= 0.0 &&
              config_.zero_page_fraction <= 1.0);
  zero_threshold_ = static_cast<std::uint32_t>(
      config_.zero_page_fraction * 10000.0 + 0.5);
  zero_tracking_ = zero_threshold_ > 0;
  state_.assign(page_count_, static_cast<std::uint8_t>(PageState::kUntouched));
  slot_.assign(page_count_, swap::kNoSlot);
  swap_copy_clean_.reset(page_count_, false);
  touched_.reset(page_count_, false);
  swapped_.reset(page_count_, false);
  zero_.reset(page_count_, false);
  page_lru_.assign(page_count_, PageLru{kNoPos, 0});
  resident_.reserve(std::min<std::uint64_t>(page_count_, reservation_pages_ + 1));
  if (audit::enabled()) deep_audit();
}

std::uint64_t GuestMemory::untouched_pages() const {
  return page_count_ - touched_.count();
}

SimTime GuestMemory::touch_slow(PageIndex p, bool write, std::uint32_t tick) {
  auto st = static_cast<PageState>(state_[p]);
  AGILE_CHECK_MSG(st != PageState::kRemote,
                  "kRemote access must go through the migration fault engine");
  SimTime latency = 0;
  switch (st) {
    case PageState::kResident:
      break;
    case PageState::kUntouched:
      ++stats_.minor_faults;
      make_resident(p, tick);
      latency = kMinorFaultCost;
      break;
    case PageState::kSwapped: {
      ++stats_.major_faults;
      ++stats_.swap_ins;
      if (trace::sample_counter(stats_.swap_ins)) {
        AGILE_TRACE_COUNTER(trace_component_, "swap_ins", trace_id_,
                            stats_.swap_ins);
      }
      latency = swap_->read_page(slot_[p]);
      swapped_.clear(p);
      make_resident(p, tick);
      // The swap slot now caches a clean copy (swap cache semantics).
      swap_copy_clean_.set(p);
      break;
    }
    case PageState::kRemote:
      break;  // unreachable
  }
  stamp_access(p, tick);
  if (write) {
    if (zero_tracking_) zero_.clear(p);  // written content is not zeroes
    if (slot_[p] != swap::kNoSlot) {
      // Contents diverge from the swap copy; drop the swap-cache entry.
      swap_->free_slot(slot_[p]);
      slot_[p] = swap::kNoSlot;
      swap_copy_clean_.clear(p);
    }
    if (dirty_log_ != nullptr) dirty_log_->set(p);
  }
  return latency;
}

void GuestMemory::prefill(std::uint64_t n, std::uint32_t tick) {
  AGILE_CHECK(n <= page_count_);
  AGILE_TRACE_SPAN(trace_component_, "prefill", trace_id_,
                   static_cast<double>(n));
  for (PageIndex p = 0; p < n; ++p) {
    touch(p, /*write=*/true, tick);
    // Marked after the touch (which clears the bit): a configured fraction of
    // prefilled pages holds all-zero content until the guest writes to it.
    if (zero_tracking_ && zero_selected(p)) zero_.set(p);
  }
}

void GuestMemory::set_reservation(Bytes bytes) {
  reservation_pages_ = std::max<std::uint64_t>(1, bytes / kPageSize);
}

std::uint64_t GuestMemory::enforce_reservation(std::uint64_t max_evictions) {
  std::uint64_t evicted = 0;
  while (resident_.size() > reservation_pages_ && evicted < max_evictions) {
    evict_one();
    ++evicted;
  }
  return evicted;
}

SimTime GuestMemory::swap_in_for_transfer(PageIndex p, std::uint32_t tick,
                                          bool sequential) {
  AGILE_CHECK(p < page_count_);
  AGILE_CHECK(state(p) == PageState::kSwapped);
  ++stats_.swap_ins;
  if (trace::sample_counter(stats_.swap_ins)) {
    AGILE_TRACE_COUNTER(trace_component_, "swap_ins", trace_id_,
                        stats_.swap_ins);
  }
  SimTime latency = sequential ? swap_->read_page_sequential(slot_[p])
                               : swap_->read_page(slot_[p]);
  swapped_.clear(p);
  make_resident(p, tick);
  swap_copy_clean_.set(p);  // read-only: swap copy stays valid
  return latency;
}

void GuestMemory::release_page(PageIndex p) {
  AGILE_CHECK(p < page_count_);
  switch (state(p)) {
    case PageState::kResident:
      remove_from_resident(p);
      if (slot_[p] != swap::kNoSlot) {
        swap_->free_slot(slot_[p]);
        slot_[p] = swap::kNoSlot;
        swap_copy_clean_.clear(p);
      }
      break;
    case PageState::kUntouched:
      break;
    case PageState::kSwapped:
      // Cold page: the copy on the (possibly portable) swap device survives;
      // whoever owns the namespace decides when slots die.
      swapped_.clear(p);
      break;
    case PageState::kRemote:
      return;  // already gone
  }
  if (zero_tracking_) zero_.clear(p);  // this memory holds no copy any more
  state_[p] = static_cast<std::uint8_t>(PageState::kRemote);
  touched_.set(p);
  ++remote_count_;
}

void GuestMemory::mark_all_remote() {
  AGILE_CHECK_MSG(resident_.empty() && swapped_.none(),
                  "mark_all_remote expects a fresh destination memory");
  std::fill(state_.begin(), state_.end(),
            static_cast<std::uint8_t>(PageState::kRemote));
  touched_.set_all();
  remote_count_ = page_count_;
  if (audit::enabled()) deep_audit();
}

void GuestMemory::install_resident(PageIndex p, std::uint32_t tick) {
  AGILE_CHECK(p < page_count_);
  AGILE_CHECK_MSG(state(p) == PageState::kRemote, "double install");
  --remote_count_;
  ++stats_.remote_installs;
  make_resident(p, tick);
}

void GuestMemory::install_swapped(PageIndex p, swap::SwapSlot s) {
  AGILE_CHECK(p < page_count_);
  AGILE_CHECK_MSG(state(p) == PageState::kRemote, "double install");
  AGILE_CHECK(s != swap::kNoSlot);
  --remote_count_;
  ++stats_.remote_installs;
  state_[p] = static_cast<std::uint8_t>(PageState::kSwapped);
  slot_[p] = s;
  swap_copy_clean_.set(p);
  swapped_.set(p);
  touched_.set(p);
}

void GuestMemory::install_untouched(PageIndex p) {
  AGILE_CHECK(p < page_count_);
  AGILE_CHECK_MSG(state(p) == PageState::kRemote, "double install");
  AGILE_CHECK(slot_[p] == swap::kNoSlot);
  --remote_count_;
  state_[p] = static_cast<std::uint8_t>(PageState::kUntouched);
  touched_.clear(p);
}

void GuestMemory::install_untouched_range(PageIndex begin, PageIndex end) {
  AGILE_CHECK(begin <= end && end <= page_count_);
  for (PageIndex p = begin; p < end; ++p) {
    if (state(p) == PageState::kRemote) install_untouched(p);
  }
  maybe_deep_audit();
}

void GuestMemory::install_swapped_batch(PageIndex first,
                                        std::span<const swap::SwapSlot> slots) {
  AGILE_CHECK(first + slots.size() <= page_count_);
  for (std::size_t i = 0; i < slots.size(); ++i) {
    install_swapped(first + i, slots[i]);
  }
  maybe_deep_audit();
}

void GuestMemory::receive_overwrite(PageIndex p, std::uint32_t tick) {
  AGILE_CHECK(p < page_count_);
  switch (state(p)) {
    case PageState::kRemote:
      install_resident(p, tick);
      return;
    case PageState::kResident:
      break;
    case PageState::kSwapped:
      swapped_.clear(p);
      make_resident(p, tick);
      break;
    case PageState::kUntouched:
      make_resident(p, tick);
      return;  // fresh page, no slot possible
  }
  stamp_access(p, tick);
  if (zero_tracking_) zero_.clear(p);  // incoming content is unknown
  if (slot_[p] != swap::kNoSlot) {
    // The incoming copy supersedes the swap copy.
    swap_->free_slot(slot_[p]);
    slot_[p] = swap::kNoSlot;
    swap_copy_clean_.clear(p);
  }
}

void GuestMemory::receive_overwrite_range(PageIndex begin, PageIndex end,
                                          std::uint32_t tick) {
  AGILE_CHECK(begin <= end && end <= page_count_);
  // Ascending order matters: each install may evict under the reservation.
  for (PageIndex p = begin; p < end; ++p) receive_overwrite(p, tick);
  maybe_deep_audit();
}

void GuestMemory::invalidate_to_remote(PageIndex p, bool free_slot) {
  AGILE_CHECK(p < page_count_);
  switch (state(p)) {
    case PageState::kRemote:
      return;  // never installed; nothing stale to drop
    case PageState::kResident:
      remove_from_resident(p);
      break;
    case PageState::kSwapped:
      swapped_.clear(p);
      break;
    case PageState::kUntouched:
      break;
  }
  if (slot_[p] != swap::kNoSlot) {
    if (free_slot) swap_->free_slot(slot_[p]);
    slot_[p] = swap::kNoSlot;
    swap_copy_clean_.clear(p);
  }
  if (zero_tracking_) zero_.clear(p);
  state_[p] = static_cast<std::uint8_t>(PageState::kRemote);
  touched_.set(p);
  ++remote_count_;
}

void GuestMemory::invalidate_range_to_remote(PageIndex begin, PageIndex end,
                                             bool free_slot) {
  AGILE_CHECK(begin <= end && end <= page_count_);
  for (PageIndex p = begin; p < end; ++p) invalidate_to_remote(p, free_slot);
  maybe_deep_audit();
}

void GuestMemory::teardown(bool free_slots) {
  AGILE_TRACE_SPAN(trace_component_, "teardown", trace_id_);
  // Per-page work only exists for touched pages: untouched pages hold no
  // frame and no slot. Word-scan the touched runs, then cover the whole state
  // array (untouched spans included) with one bulk fill.
  for (Bitmap::Run run = touched_.next_set_run(0); !run.empty();
       run = touched_.next_set_run(run.end)) {
    for (PageIndex p = run.begin; p < run.end; ++p) {
      if (state(p) == PageState::kResident) remove_from_resident(p);
      if (free_slots && slot_[p] != swap::kNoSlot) {
        swap_->free_slot(slot_[p]);
        slot_[p] = swap::kNoSlot;
        swap_copy_clean_.clear(p);
      }
    }
  }
  std::fill(state_.begin(), state_.end(),
            static_cast<std::uint8_t>(PageState::kRemote));
  remote_count_ = page_count_;
  touched_.set_all();
  swapped_.clear_all();
  zero_.clear_all();
  if (audit::enabled()) deep_audit();
}

void GuestMemory::make_resident(PageIndex p, std::uint32_t tick) {
  AGILE_CHECK(state(p) != PageState::kResident);
  while (resident_.size() >= reservation_pages_) evict_one();
  state_[p] = static_cast<std::uint8_t>(PageState::kResident);
  touched_.set(p);
  page_lru_[p] = PageLru{static_cast<std::uint32_t>(resident_.size()), tick};
  resident_.push_back(ResidentEntry{static_cast<std::uint32_t>(p), tick});
}

void GuestMemory::remove_from_resident(PageIndex p) {
  std::uint32_t pos = page_lru_[p].pos;
  AGILE_CHECK(pos != kNoPos);
  AGILE_DCHECK_EQ(resident_[pos].page, p)
      << "packed LRU position of page " << p << " names another page";
  AGILE_DCHECK_EQ(resident_[pos].stamp, page_lru_[p].stamp)
      << "stamp copies diverge for page " << p;
  ResidentEntry last = resident_.back();
  resident_[pos] = last;
  page_lru_[last.page].pos = pos;
  resident_.pop_back();
  page_lru_[p].pos = kNoPos;
}

PageIndex GuestMemory::pick_victim() {
  AGILE_CHECK(!resident_.empty());
  // Sampled-LRU inner loop: each sample reads one packed {page, stamp}
  // entry — a single random cache line — instead of chasing the page index
  // through the (equally cold) per-page stamp table. The draw order and the
  // first-minimum-wins reduction match the unpacked loop, so the RNG stream
  // and the chosen victim are identical.
  const ResidentEntry* const entries = resident_.data();
  const std::uint64_t n = resident_.size();
  const std::uint32_t samples = config_.eviction_samples;
  ResidentEntry best = entries[rng_.next_below(n)];
  for (std::uint32_t i = 1; i < samples; ++i) {
    ResidentEntry cand = entries[rng_.next_below(n)];
    if (cand.stamp < best.stamp) best = cand;
  }
  return best.page;
}

void GuestMemory::evict_page(PageIndex p) {
  AGILE_CHECK(p < page_count_);
  AGILE_CHECK(state(p) == PageState::kResident);
  AGILE_DCHECK(!swapped_.test(p)) << "resident page " << p << " in swapped bitmap";
  remove_from_resident(p);
  if (slot_[p] != swap::kNoSlot && swap_copy_clean_.test(p)) {
    ++stats_.clean_drops;  // swap copy still valid; no I/O
  } else {
    if (slot_[p] == swap::kNoSlot) slot_[p] = swap_->allocate_slot();
    swap_->write_page(slot_[p]);  // write-behind
    swap_copy_clean_.set(p);
    ++stats_.swap_outs;
  }
  state_[p] = static_cast<std::uint8_t>(PageState::kSwapped);
  swapped_.set(p);
  if (trace::sample_counter(stats_.swap_outs + stats_.clean_drops)) {
    AGILE_TRACE_COUNTER(trace_component_, "evictions", trace_id_,
                        stats_.swap_outs + stats_.clean_drops);
  }
}

void GuestMemory::evict_one() { evict_page(pick_victim()); }

std::uint64_t GuestMemory::true_working_set_pages(
    std::uint32_t now_tick, std::uint32_t window_ticks) const {
  std::uint64_t count = 0;
  // Only touched pages can have a meaningful access stamp; skip untouched
  // spans word-at-a-time instead of testing every page.
  for (Bitmap::Run run = touched_.next_set_run(0); !run.empty();
       run = touched_.next_set_run(run.end)) {
    for (PageIndex p = run.begin; p < run.end; ++p) {
      if (now_tick - page_lru_[p].stamp <= window_ticks) ++count;
    }
  }
  return count;
}

void GuestMemory::deep_audit() const {
  // Reverse direction of the packed-LRU cross-audit: every resident-vector
  // entry must name a resident page whose page_lru_ record points back at
  // this position with an identical stamp copy.
  for (std::uint32_t i = 0; i < resident_.size(); ++i) {
    const ResidentEntry& e = resident_[i];
    AGILE_CHECK_S(e.page < page_count_) << "resident entry " << i << " out of range";
    AGILE_CHECK_S(state(e.page) == PageState::kResident)
        << "resident entry " << i << " names non-resident page " << e.page;
    AGILE_CHECK_S(page_lru_[e.page].pos == i)
        << "page " << e.page << " lru pos " << page_lru_[e.page].pos
        << " does not point back at resident slot " << i;
    AGILE_CHECK_S(page_lru_[e.page].stamp == e.stamp)
        << "stamp copies diverge for page " << e.page;
  }
  touched_.deep_audit();
  swapped_.deep_audit();
  swap_copy_clean_.deep_audit();
  zero_.deep_audit();
  if (!zero_tracking_) {
    AGILE_CHECK_S(zero_.none())
        << "zero-page bits set while tracking is disabled";
  }

  std::uint64_t resident = 0, swapped = 0, remote = 0;
  for (PageIndex p = 0; p < page_count_; ++p) {
    const auto st = static_cast<PageState>(state_[p]);
    switch (st) {
      case PageState::kResident:
        ++resident;
        AGILE_CHECK(page_lru_[p].pos != kNoPos);
        AGILE_CHECK(resident_[page_lru_[p].pos].page == p);
        AGILE_CHECK(resident_[page_lru_[p].pos].stamp == page_lru_[p].stamp);
        break;
      case PageState::kSwapped:
        ++swapped;
        AGILE_CHECK(slot_[p] != swap::kNoSlot);
        AGILE_CHECK(page_lru_[p].pos == kNoPos);
        break;
      case PageState::kUntouched:
        AGILE_CHECK(slot_[p] == swap::kNoSlot);
        AGILE_CHECK(page_lru_[p].pos == kNoPos);
        break;
      case PageState::kRemote:
        ++remote;
        AGILE_CHECK(page_lru_[p].pos == kNoPos);
        break;
    }
    AGILE_CHECK(touched_.test(p) == (st != PageState::kUntouched));
    AGILE_CHECK(swapped_.test(p) == (st == PageState::kSwapped));
    if (swap_copy_clean_.test(p)) AGILE_CHECK(slot_[p] != swap::kNoSlot);
    if (zero_.test(p)) {
      // A zero mark asserts "this memory holds an all-zero copy": only pages
      // with a local copy qualify.
      AGILE_CHECK(st == PageState::kResident || st == PageState::kSwapped);
    }
  }
  AGILE_CHECK(resident == resident_.size());
  AGILE_CHECK(swapped == swapped_.count());
  AGILE_CHECK(remote == remote_count_);
  AGILE_CHECK(page_count_ - touched_.count() == untouched_pages());
  if (dirty_log_ != nullptr) {
    AGILE_CHECK_S(dirty_log_->size() == page_count_)
        << "dirty log size " << dirty_log_->size() << " != page count";
  }
}

}  // namespace agile::mem
