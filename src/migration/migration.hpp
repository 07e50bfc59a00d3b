// Live migration framework.
//
// `MigrationManager` is the per-VM migration thread of the paper. A concrete
// manager (PrecopyMigration, PostcopyMigration, AgileMigration) is created
// for one VM, wired to the cluster's quantum loop, and drives the transfer
// state machine:
//
//  * a fresh destination-process memory is allocated (all pages kRemote),
//  * pages travel over a WireStream between the hosts' NICs,
//  * the migration thread's time budget (one quantum per tick) self-paces
//    the scan — swap-ins, page copies and a full send window all consume it,
//  * switchover suspends the VM, moves it (and its workload) to the
//    destination host, swaps in the destination memory, and resumes it,
//  * `MigrationMetrics` records the paper's measures: total time, downtime,
//    bytes on the migration channel, demand-fault counts, etc.
//
// The manager owns the one run-batched page sender (`send_owed`): pre-copy's
// rounds and stop-copy, post-copy's push and Agile's dirty push all call it
// and differ only in their receiver side (`deliver`). It also owns the
// post-flip protocol the paper builds Agile from: `start_push` hands the
// destination an owed set — the whole guest for post-copy, the live round's
// dirty set for Agile — which the source then pushes while the destination
// demand-faults whatever it touches first. Agile's post-flip phase *is* this
// push, over fewer pages.
#pragma once

#include <functional>
#include <memory>

#include "host/cluster.hpp"
#include "mem/pagemap.hpp"
#include "migration/stream_group.hpp"
#include "stats/health.hpp"
#include "util/bitmap.hpp"

namespace agile::migration {

/// Modeled per-page compression of full-page payloads (PMigrate's
/// compress-new branch): the sender pays CPU time per page, the wire carries
/// the compressed payload. Descriptors, CPU state and demand-fault RPCs are
/// never compressed.
enum class Compression : std::uint8_t {
  kOff = 0,
  kFast = 1,   ///< LZO-class: cheap, modest ratio.
  kHeavy = 2,  ///< zlib-class: expensive, strong ratio.
};

const char* compression_name(Compression c);

struct MigrationConfig {
  Bytes page_header = 64;        ///< Wire framing per full page.
  Bytes descriptor_bytes = 16;   ///< SWAPPED/zero-page descriptor message.
  Bytes cpu_state_bytes = 4_MiB; ///< vCPU + virtual device state blob.
  SimTime downtime_target = msec(300);  ///< Pre-copy convergence target.
  std::uint32_t max_rounds = 30;        ///< Pre-copy iteration cap.
  /// Max stream backlog before the thread stalls. Must comfortably exceed
  /// one quantum of line rate (~12 MB at 1 Gbps / 100 ms) or the stream runs
  /// dry between scheduling quanta — with multiple streams, one quantum of
  /// the *aggregate* rate.
  Bytes send_window = 32_MiB;
  SimTime page_copy_cost = 2;    ///< µs of thread time per resident page sent.
  SimTime fault_overhead = 25;   ///< µs: UMEM trap + UMEMD dispatch.
  /// Parallel wire streams (1..StreamGroup::kMaxStreams). Run dispatch is
  /// deterministic round-robin; 1 keeps the single-TCP-connection model.
  std::uint32_t num_streams = 1;
  Compression compression = Compression::kOff;
  /// Compression model, per full page: thread µs charged to the sender and
  /// the payload size ratio on the wire.
  SimTime compress_fast_cost = 5;      ///< µs/page (LZO-class).
  double compress_fast_ratio = 0.55;
  SimTime compress_heavy_cost = 17;    ///< µs/page (zlib-class).
  double compress_heavy_ratio = 0.35;
};

struct MigrationMetrics {
  SimTime start_time = -1;
  SimTime switchover_time = -1;  ///< When execution flipped to the destination.
  SimTime end_time = -1;         ///< When the source released the last state.
  SimTime downtime = 0;

  Bytes bytes_transferred = 0;   ///< On the direct source→dest channel.
  Bytes bytes_from_swap_device = 0;  ///< Cold pages demand-read at the dest.
  Bytes bytes_scattered = 0;     ///< Source → intermediaries (scatter-gather).

  std::uint64_t pages_sent_full = 0;   ///< Full page payloads (incl. resends).
  std::uint64_t pages_sent_descriptor = 0;  ///< SWAPPED / zero-page markers.
  std::uint64_t pages_demand_served = 0;    ///< Network demand faults served.
  std::uint64_t pages_swap_faulted = 0;     ///< Dest faults served by the swap device.
  std::uint64_t pages_swapped_in_at_source = 0;  ///< Baseline swap-in cost.
  std::uint64_t duplicate_pages = 0;   ///< Push raced a demand fault.
  std::uint32_t precopy_rounds = 0;
  std::uint64_t pages_zero_elided = 0;  ///< Zero pages shipped as descriptors.
  Bytes compressed_bytes_saved = 0;     ///< full-page bytes minus wire bytes.

  bool completed = false;

  SimTime total_time() const {
    return (completed && start_time >= 0) ? end_time - start_time : -1;
  }
};

struct MigrationParams {
  vm::VirtualMachine* machine = nullptr;
  workload::Workload* load = nullptr;  ///< May be null (bare VM).
  host::Host* source = nullptr;
  host::Host* dest = nullptr;
  /// Swap device for the destination process (baselines: the destination
  /// host's partition; Agile: the VM's portable per-VM device).
  swap::SwapDevice* dest_swap = nullptr;
  Bytes dest_reservation = 0;  ///< cgroup reservation at the destination.
};

class MigrationManager {
 public:
  MigrationManager(host::Cluster* cluster, MigrationParams params,
                   MigrationConfig config);
  virtual ~MigrationManager();

  MigrationManager(const MigrationManager&) = delete;
  MigrationManager& operator=(const MigrationManager&) = delete;

  /// Begins the migration (registers with the cluster quantum loop).
  void start();

  bool started() const { return started_; }
  bool completed() const { return metrics_.completed; }
  const MigrationMetrics& metrics() const { return metrics_; }

  /// Fires at switchover, once the VM runs at the destination. The core
  /// layer uses it to re-attach a portable per-VM swap device there.
  void set_on_switchover(std::function<void()> fn) {
    on_switchover_ = std::move(fn);
  }

  /// Fires from the destructor (before members tear down). The Testbed uses
  /// this to deregister the migration from its lane-affinity registry; the
  /// registrar must outlive the manager.
  void set_on_destroy(std::function<void(MigrationManager*)> fn) {
    on_destroy_ = std::move(fn);
  }

  virtual const char* technique() const = 0;

  /// Engine phase for observability: a small engine-defined code. Engines
  /// call `set_phase` at every transition with the code and a stable
  /// human-readable name ("init", "live", "push", ...) for the trace; the
  /// codes order monotonically within one engine but are not comparable
  /// across techniques.
  int phase_code() const { return phase_code_; }

  /// Pages the engine still owes the destination over the wire (dirty set /
  /// unsent scan remainder — *not* cold pages served from the swap device).
  /// Engines override with their own debt notion; 0 once done.
  virtual std::uint64_t pages_owed() const = 0;

  /// Unsent bytes queued on the wire stream group (0 before start()).
  Bytes wire_backlog() const { return stream_ ? stream_->backlog() : 0; }

  /// Snapshot of this migration's health inputs at simulated time `now`;
  /// feed to a stats::MigrationHealthModel. Valid any time after start().
  stats::MigrationObservation sample_health(SimTime now) const;

  vm::VirtualMachine* machine() const { return params_.machine; }
  host::Host* source_host() const { return params_.source; }
  host::Host* dest_host() const { return params_.dest; }

  /// Destination-process memory. The pointer is stable from start() through
  /// the end of the migration (ownership moves into the VM at switchover,
  /// but the object does not).
  mem::GuestMemory* dest_memory() const { return dest_mem_; }
  /// Source-process memory (the VM's own until switchover, then retained
  /// here until completion).
  mem::GuestMemory* source_memory() const { return source_mem_; }

 protected:
  /// Wire payload of a page run sent by `send_owed`.
  enum class Payload : std::uint8_t {
    kDescriptor,  ///< Untouched or zero-elided: installs as the zero page.
    kFull,        ///< The page's content.
  };

  /// Per-quantum protocol step, until `start_push`: from then on the manager
  /// runs the push itself each quantum.
  virtual void on_tick(SimTime now, SimTime dt, std::uint32_t tick) = 0;

  /// Runs one quantum of migration-thread work: `work(budget)` gets `dt`
  /// minus what the previous quantum overdrew and returns what it left over
  /// (negative: overdrawn, carried into the next quantum). A quantum the debt
  /// swallows whole runs no work.
  template <typename Work>
  void spend_quantum(SimTime dt, Work&& work) {
    SimTime budget = dt - debt_;
    debt_ = 0;
    if (budget > 0) budget = work(budget);
    if (budget < 0) debt_ = -budget;
  }

  /// The run-batched sender. Walks `owed`'s set bits from `cursor`, clearing
  /// each page it sends: untouched and zero-elided runs travel as descriptor
  /// batches, resident/swapped stretches as full-page batches (swapped pages
  /// are swapped in at the source first). Each batch costs `budget` thread
  /// time and lands through `deliver`. Stops on a spent budget or a full
  /// send window (returns false) or a drained set (returns true).
  bool send_owed(Bitmap& owed, std::uint64_t& cursor, SimTime& budget,
                 std::uint32_t tick);

  /// Receiver side of `send_owed`: pages [p, p + n) arrived as `payload`.
  /// The default is the push delivery (post-copy, Agile): a page's first
  /// copy installs at the destination, a copy a demand fault overtook is
  /// counted as a duplicate and dropped, and either way the source releases
  /// the page. Pre-copy overrides it with its range installs.
  virtual void deliver(PageIndex p, std::uint64_t n, Payload payload);

  /// Whether a source swap-in on the send path counts toward
  /// `pages_swapped_in_at_source` — the baselines' SSD read cost. Agile
  /// re-reads its per-VM device, a remote-memory hit, and opts out.
  virtual bool counts_source_swap_ins() const { return true; }

  /// Starts the post-flip push over `owed_` (call from the flip callback,
  /// after `complete_switchover`): installs the demand-fault service, enters
  /// phase `push_phase` ("push"), and completes at once if nothing is owed.
  /// The push finishes in phase `push_phase + 1` ("done") once the
  /// destination holds every owed page, then tears the source down.
  void start_push(int push_phase);

  /// Moves execution to the destination: suspend accounting, host move,
  /// memory swap, resume, then the switchover callback. Subclasses call this
  /// at their switchover point, after `begin_suspend` + CPU-state delivery.
  void complete_switchover();

  /// Marks the VM suspended and remembers when (downtime starts).
  void begin_suspend();

  /// Wraps up: metrics, hook removal, completion callback. Subclasses finish
  /// source teardown before calling.
  void finish();

  std::uint64_t page_count() const { return params_.machine->page_count(); }
  Bytes full_page_bytes() const { return kPageSize + config_.page_header; }
  /// Wire size of one full-page payload after the modeled compression stage
  /// (== full_page_bytes() with compression off).
  Bytes wire_page_bytes() const { return wire_page_bytes_; }
  /// Thread µs per full page sent: the copy cost plus the compression cost.
  SimTime page_send_cost() const { return page_send_cost_; }
  /// Accounts `n` full pages offered to the wire: metrics bytes at the
  /// compressed size plus the savings counter/trace sample. Engines call this
  /// instead of open-coding `bytes_transferred += n * full_page_bytes()`.
  void account_full_pages(std::uint64_t n);
  /// True when page `p` can travel as a zero-page descriptor instead of a
  /// full payload (the destination installs it as untouched).
  bool zero_elidable(PageIndex p) const;
  /// Trace entity id: the migrating VM's lane.
  std::uint64_t trace_id() const { return params_.machine->config().trace_id; }
  /// Records a phase transition (see phase_code). `name` must be a string
  /// literal; it names the trace instant emitted on the migration track.
  void set_phase(int code, const char* name);

  host::Cluster* cluster_;
  MigrationParams params_;
  MigrationConfig config_;
  MigrationMetrics metrics_;

  std::unique_ptr<StreamGroup> stream_;
  std::unique_ptr<mem::GuestMemory> dest_mem_owned_;  ///< Until switchover.
  mem::GuestMemory* dest_mem_ = nullptr;              ///< Stable view of it.
  mem::GuestMemory* source_mem_ = nullptr;
  std::unique_ptr<mem::GuestMemory> source_mem_owned_;  ///< After switchover.

  /// Pages the destination is owed after the flip: the whole guest for
  /// post-copy, the live round's dirty set for Agile. Fixed once pushing.
  Bitmap owed_;
  Bitmap received_;  ///< Owed pages the destination holds.

 private:
  /// Per-quantum push after `start_push`.
  void push_quantum(SimTime dt, std::uint32_t tick);
  /// Demand-fault service of the push: fetches owed page `p` from the
  /// source (swapping it in there first if it is cold).
  SimTime serve_fault(PageIndex p, std::uint32_t tick);
  /// Completes the push once the destination holds every owed page.
  void maybe_finish_push();

  bool started_ = false;
  int phase_code_ = 0;
  SimTime suspend_time_ = -1;
  SimTime debt_ = 0;  ///< Thread time overdrawn from the last quantum.
  std::uint64_t hook_id_ = 0;
  std::function<void()> on_switchover_;
  std::function<void(MigrationManager*)> on_destroy_;
  Bytes wire_page_bytes_ = 0;     ///< Cached: header + compressed page body.
  SimTime page_send_cost_ = 0;    ///< Cached: copy + compression µs per page.

  bool pushing_ = false;     ///< Between start_push and push completion.
  Bitmap unsent_;            ///< Owed pages not yet pushed or demand-served.
  std::uint64_t push_cursor_ = 0;
  /// Full + descriptor pages sent before the push started (Agile's live
  /// round): the exactly-once audit counts page messages from here.
  std::uint64_t sent_before_push_ = 0;
};

}  // namespace agile::migration
