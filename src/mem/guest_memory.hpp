// Page-granular guest physical memory model.
//
// Each VM's memory is an array of 4 KiB pages, each in one of four states:
//
//   kUntouched — never written; costs no host frame (zero page).
//   kResident  — backed by a host frame, charged against the VM's cgroup
//                memory reservation.
//   kSwapped   — only copy lives at `swap_slot` on the VM's swap device.
//   kRemote    — (destination side, during the post-copy phase) the page has
//                not arrived yet; an access must go through the migration
//                fault engine. GuestMemory itself never services kRemote.
//
// Reservation enforcement mirrors the cgroup memory controller: making a page
// resident while the reservation is full evicts a victim chosen by sampled
// LRU (K random resident pages, oldest last-access wins — the same flavor of
// approximation the kernel's LRU lists give in practice). Victims with a
// still-valid swap copy are dropped for free; dirty victims are written back
// write-behind, so reclaim itself is cheap but the swap device queue grows —
// thrashing emerges when the working set exceeds the reservation.
//
// The migration dirty log hooks in exactly like KVM's dirty bitmap: when
// attached, every write access sets the page's bit.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "swap/swap_device.hpp"
#include "util/bitmap.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"
#include "util/units.hpp"

namespace agile::mem {

enum class PageState : std::uint8_t {
  kUntouched = 0,
  kResident = 1,
  kSwapped = 2,
  kRemote = 3,
};

struct MemStats {
  std::uint64_t minor_faults = 0;   ///< Untouched → resident allocations.
  std::uint64_t major_faults = 0;   ///< Swap-ins caused by guest access.
  std::uint64_t swap_ins = 0;       ///< All swap-ins (access + migration reads).
  std::uint64_t swap_outs = 0;      ///< Dirty evictions written to swap.
  std::uint64_t clean_drops = 0;    ///< Evictions satisfied without I/O.
  std::uint64_t remote_installs = 0;  ///< Pages installed by the migration path.
};

struct GuestMemoryConfig {
  Bytes size = 1_GiB;            ///< Guest physical memory size.
  Bytes reservation = 1_GiB;     ///< cgroup memory reservation.
  std::uint32_t eviction_samples = 8;  ///< Sampled-LRU candidate count.
  /// Fraction of touched pages whose content is all zeroes (page-cache slack,
  /// zeroed-but-never-reused allocations). Marked deterministically at
  /// prefill by a hash of the page index — never from `rng_`, so enabling it
  /// cannot perturb the eviction-sampling draw order. A guest write clears
  /// the mark. The migration senders elide such pages to a descriptor.
  double zero_page_fraction = 0.0;
};

class GuestMemory {
 public:
  GuestMemory(const GuestMemoryConfig& config, swap::SwapDevice* swap_device,
              Rng rng);

  std::uint64_t page_count() const { return page_count_; }
  Bytes size_bytes() const { return config_.size; }

  PageState state(PageIndex p) const {
    AGILE_CHECK(p < page_count_);
    return static_cast<PageState>(state_[p]);
  }
  bool is_resident(PageIndex p) const { return state(p) == PageState::kResident; }
  bool is_swapped(PageIndex p) const { return state(p) == PageState::kSwapped; }

  std::uint64_t resident_pages() const { return resident_.size(); }
  Bytes resident_bytes() const { return resident_.size() * kPageSize; }
  std::uint64_t swapped_pages() const { return swapped_.count(); }
  std::uint64_t untouched_pages() const;
  std::uint64_t remote_pages() const { return remote_count_; }

  /// Pages currently kSwapped, maintained on every state transition. The
  /// scatter-gather gatherer and slot-handoff sweeps run-scan this instead of
  /// walking the state array page by page.
  const Bitmap& swapped_bitmap() const { return swapped_; }

  /// Zero-page classification (see GuestMemoryConfig::zero_page_fraction).
  /// True when page `p` is touched but its content is all zeroes, so a
  /// migration sender may ship a descriptor instead of the 4 KiB payload.
  /// Always false when tracking is off (the default).
  bool is_zero_page(PageIndex p) const {
    AGILE_CHECK(p < page_count_);
    return zero_tracking_ && zero_.test(p);
  }
  /// True when zero-page classification is active. Senders use this to skip
  /// per-page zero probes entirely on default-configured memories.
  bool zero_tracking() const { return zero_tracking_; }
  std::uint64_t zero_pages() const { return zero_.count(); }

  /// End of the maximal run of pages sharing page `p`'s state, capped at
  /// `limit`: every page in [p, result) has state(p). The senders use this to
  /// coalesce contiguous same-class pages into one wire message.
  PageIndex state_run_end(PageIndex p, PageIndex limit) const {
    AGILE_CHECK(p < limit && limit <= page_count_);
    const std::uint8_t cls = state_[p];
    PageIndex q = p + 1;
    while (q < limit && state_[q] == cls) ++q;
    return q;
  }

  swap::SwapDevice* swap_device() const { return swap_; }

  // --- Runtime access path -------------------------------------------------

  /// Guest touches page `p` at LRU clock `tick`. Returns the fault latency to
  /// charge the access (0 for the resident fast path). Must not be called on
  /// kRemote pages — the VM layer routes those to the fault engine.
  /// Defined inline: this is the single hottest call in the simulator
  /// (hundreds of millions per paper-scale sweep), and the resident cases
  /// reduce to a handful of loads and stores.
  SimTime touch(PageIndex p, bool write, std::uint32_t tick) {
    AGILE_CHECK(p < page_count_);
    if (static_cast<PageState>(state_[p]) == PageState::kResident) {
      stamp_access(p, tick);
      if (!write) return 0;
      if (zero_tracking_) zero_.clear(p);  // written content is not zeroes
      if (slot_[p] == swap::kNoSlot) {
        if (dirty_log_ != nullptr) dirty_log_->set(p);
        return 0;
      }
    }
    return touch_slow(p, write, tick);
  }

  /// Touch pages [0, n) as writes (dataset load / boot-time pre-fill). Obeys
  /// the reservation, so the tail ends up swapped once the reservation fills.
  void prefill(std::uint64_t n, std::uint32_t tick);

  // --- cgroup reservation ---------------------------------------------------

  Bytes reservation() const { return reservation_pages_ * kPageSize; }
  std::uint64_t reservation_pages() const { return reservation_pages_; }
  void set_reservation(Bytes bytes);

  /// Evicts until resident <= reservation, at most `max_evictions` pages
  /// (reclaim proceeds at a bounded rate per quantum, like kswapd). Returns
  /// pages evicted.
  std::uint64_t enforce_reservation(std::uint64_t max_evictions);

  /// Forcibly evicts a specific resident page to the swap device (targeted
  /// reclaim — the scatter phase of scatter-gather migration). Free if a
  /// valid swap copy exists; otherwise a write-behind to the device.
  void evict_page(PageIndex p);

  /// True if resident set exceeds the reservation (reclaim pending).
  bool over_reservation() const { return resident_.size() > reservation_pages_; }

  // --- Migration support ----------------------------------------------------

  /// Attaches a dirty log; every subsequent write sets the page's bit.
  void attach_dirty_log(Bitmap* log) { dirty_log_ = log; }
  void detach_dirty_log() { dirty_log_ = nullptr; }

  /// Swap-in on behalf of the migration manager (pre-copy reading a swapped
  /// page to transfer it). The page becomes resident and may evict a victim —
  /// this is the thrashing loop of the baselines. Returns read latency.
  /// `sequential` marks sweep reads that benefit from device readahead;
  /// demand-fault service reads (random) must pass false.
  SimTime swap_in_for_transfer(PageIndex p, std::uint32_t tick,
                               bool sequential = true);

  /// Swap slot of a swapped page (the PTE's swap offset).
  swap::SwapSlot swap_slot(PageIndex p) const {
    AGILE_CHECK(p < page_count_);
    return slot_[p];
  }

  /// Source side, post-copy phase: page has been pushed / sent; release the
  /// frame or slot it occupied. After this the source holds no copy.
  void release_page(PageIndex p);

  /// Destination side: marks every page not-yet-arrived.
  void mark_all_remote();

  /// Destination side: a full page arrived from the wire and becomes
  /// resident (evicting under the reservation as needed).
  void install_resident(PageIndex p, std::uint32_t tick);

  /// Destination side (Agile): a SWAPPED descriptor arrived — the page's only
  /// copy is at `slot` on the (portable) per-VM swap device.
  void install_swapped(PageIndex p, swap::SwapSlot slot);

  /// Destination side: page is untouched/zero at the source; no data needed.
  void install_untouched(PageIndex p);

  /// Range form for descriptor runs: installs every still-kRemote page in
  /// [begin, end) as untouched; pages already installed (a demand fault beat
  /// the descriptor) are left alone.
  void install_untouched_range(PageIndex begin, PageIndex end);

  /// Destination side (Agile): a run of SWAPPED descriptors arrived — pages
  /// [first, first + slots.size()) live at `slots[i]` on the per-VM device.
  void install_swapped_batch(PageIndex first,
                             std::span<const swap::SwapSlot> slots);

  /// Destination side, pre-copy: a wire copy of the page replaces whatever
  /// this memory currently holds (later rounds legitimately resend pages the
  /// destination may have even swapped out meanwhile).
  void receive_overwrite(PageIndex p, std::uint32_t tick);

  /// Range form for full-copy runs: overwrite-installs [begin, end) in
  /// ascending order (order matters — installs may evict under the
  /// reservation).
  void receive_overwrite_range(PageIndex begin, PageIndex end,
                               std::uint32_t tick);

  /// Source-side teardown after migration completes: drops every frame and —
  /// when `free_slots` — releases all swap slots (baseline semantics: the
  /// host-level swap space is reclaimed once the VM has left). Agile keeps
  /// the cold pages' slots alive on the portable device and reconciles them
  /// separately. Per-page work is O(touched): untouched spans are covered by
  /// one bulk state fill.
  void teardown(bool free_slots);

  /// Destination side, Agile switchover: page `p` was installed during the
  /// live round but the source dirtied it afterwards — whatever we hold is
  /// stale. Drops the page back to kRemote. `free_slot` must be true when
  /// this memory owns the page's swap slot (it evicted the page itself) and
  /// false when the slot came from a SWAPPED descriptor (the source already
  /// freed it when the guest wrote to the page).
  void invalidate_to_remote(PageIndex p, bool free_slot);

  /// Range form for the post-flip invalidation sweep: drops every page in
  /// [begin, end) back to kRemote with a uniform `free_slot` policy (the
  /// caller splits runs on slot-ownership boundaries).
  void invalidate_range_to_remote(PageIndex begin, PageIndex end,
                                  bool free_slot);

  /// Source side, Agile: slot ownership for page `p` has passed to the
  /// destination's memory. Forgets the slot here without freeing it on the
  /// (shared, portable) device; a still-swapped page transitions to kRemote.
  void forget_slot(PageIndex p) {
    AGILE_CHECK(p < page_count_);
    if (state(p) == PageState::kSwapped) {
      swapped_.clear(p);
      state_[p] = static_cast<std::uint8_t>(PageState::kRemote);
      ++remote_count_;
      if (zero_tracking_) zero_.clear(p);  // copy now lives at the dest
    }
    slot_[p] = swap::kNoSlot;
  }

  const MemStats& stats() const { return stats_; }

  /// Trace lane for this memory's events. The VM's own memory traces as
  /// "mem" on the VM's lane; a migration's destination process uses
  /// "mem.dest" so the two sides' counters stay on separate tracks.
  void set_trace_identity(const char* component, std::uint64_t id) {
    trace_component_ = component;
    trace_id_ = id;
  }

  /// Ground-truth working set: pages accessed in the last `window_ticks`
  /// relative to `now_tick`. Word-scans the touched bitmap, so idle VMs with
  /// mostly-untouched memory pay O(touched), not O(page_count). Only tests
  /// call it today; no simulated component and no bench reads it.
  std::uint64_t true_working_set_pages(std::uint32_t now_tick,
                                       std::uint32_t window_ticks) const;

  /// Deep auditor (O(page_count)): internal counters match the per-page
  /// state array, every resident page's LRU word and the resident vector
  /// cross-reference each other exactly (both directions), and the
  /// touched/swapped bitmaps agree with the pagemap view bit for bit.
  /// Aborts on violation. Runs automatically at structural boundaries (and
  /// decimated during migrations) when `audit::enabled()`.
  void deep_audit() const;

  /// Sanity invariant: internal counters match the per-page state array.
  /// O(page_count); used by tests. Alias of deep_audit().
  void check_consistency() const { deep_audit(); }

 private:
  void make_resident(PageIndex p, std::uint32_t tick);
  void remove_from_resident(PageIndex p);
  void evict_one();
  PageIndex pick_victim();

  /// Out-of-line continuation of touch() for everything beyond the resident
  /// fast paths: minor/major faults and resident writes that must drop a
  /// stale swap copy.
  SimTime touch_slow(PageIndex p, bool write, std::uint32_t tick);

  /// Updates a resident page's LRU stamp, whose one copy lives in its
  /// packed resident entry (see ResidentEntry and lru_word_).
  void stamp_access(PageIndex p, std::uint32_t tick) {
    const std::uint32_t pos = lru_word_[p];
    AGILE_DCHECK_LT(pos, resident_.size()) << "stamping non-resident page " << p;
    AGILE_DCHECK_EQ(resident_[pos].page, p)
        << "LRU word of page " << p << " points at another resident entry";
    resident_[pos].stamp = tick;
  }

  /// Decimated deep audit for migration-path mutators: every
  /// `kAuditEvery`-th call (plus every structural boundary, which calls
  /// deep_audit() directly) when auditing is enabled.
  void maybe_deep_audit() const {
    if (!audit::enabled()) return;
    if (++audit_ops_ % kAuditEvery == 0) deep_audit();
  }

  GuestMemoryConfig config_;
  std::uint64_t page_count_;
  std::uint64_t reservation_pages_;
  swap::SwapDevice* swap_;
  Rng rng_;

  std::vector<std::uint8_t> state_;
  /// Swap slot holding a current copy of the page, or kNoSlot (a write to a
  /// resident page frees its slot, so a slot always means a clean copy).
  std::vector<swap::SwapSlot> slot_;

  // Resident-set index for O(1) sampling and removal. Each entry holds the
  // page's LRU stamp, its only copy while the page is resident, so the
  // sampled-eviction loop reads one random cache line per sample instead of
  // chasing the page index through a second cold table; at paper scale both
  // tables are far larger than cache and eviction sampling dominates the
  // whole simulation, so halving its miss count is a first-order win.
  struct ResidentEntry {
    std::uint32_t page;
    std::uint32_t stamp;
  };
  std::vector<ResidentEntry> resident_;  ///< packed resident table

  /// Per-page LRU word, 4 B a page. While the page is resident (state_ says
  /// which) it holds the page's position in resident_, whose entry holds the
  /// stamp; otherwise it holds the page's last-access stamp (0 if never
  /// stamped), moved back from the entry when the page left resident_.
  std::vector<std::uint32_t> lru_word_;

  /// Pages that ever left kUntouched (equivalently: state != kUntouched).
  /// Word-scanning this keeps teardown and WSS probes O(touched) even on
  /// mostly-untouched memories.
  Bitmap touched_;
  Bitmap swapped_;  ///< state == kSwapped (see swapped_bitmap()).
  std::uint64_t remote_count_ = 0;

  /// Zero-content classification (see is_zero_page). `zero_threshold_` is
  /// the prefill marking probability in basis points (fraction * 10000).
  Bitmap zero_;
  bool zero_tracking_ = false;
  std::uint32_t zero_threshold_ = 0;

  /// Deterministic page-index hash for prefill zero marking: splitmix-style
  /// mix, independent of `rng_` so the eviction sampling stream is untouched.
  bool zero_selected(PageIndex p) const {
    std::uint64_t h = (static_cast<std::uint64_t>(p) + 1) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 33;
    h *= 0xC2B2AE3D27D4EB4Full;
    h ^= h >> 29;
    return h % 10000 < zero_threshold_;
  }

  Bitmap* dirty_log_ = nullptr;
  MemStats stats_;

  const char* trace_component_ = "mem";  ///< See set_trace_identity().
  std::uint64_t trace_id_ = 0;

  /// Deep-audit decimation counter (see maybe_deep_audit). Mutable: auditing
  /// observes, never changes, simulation state.
  static constexpr std::uint64_t kAuditEvery = 4096;
  mutable std::uint64_t audit_ops_ = 0;
};

}  // namespace agile::mem
