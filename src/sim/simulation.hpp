// Discrete-event simulation core.
//
// A `Simulation` owns virtual time and a priority queue of events. Ties in
// time are broken by insertion sequence, so runs are fully deterministic.
// Components that need a regular cadence (device models, workload execution,
// metric sampling) register periodic tasks; one-shot events drive experiment
// scripts ("ramp the workload at t=150 s", "start migration at t=400 s") and
// protocol timeouts.
//
// The queue is a hand-rolled binary heap over a reserved vector rather than
// `std::priority_queue`: it lets us move events out on pop and pre-size the
// storage. Periodic tasks are first-class queue entries — re-arming one
// copies a `shared_ptr` instead of heap-allocating a fresh `std::function`
// closure per firing, which is the hottest scheduling path in the system
// (the cluster quantum alone fires ten times per simulated second).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/status.hpp"
#include "util/units.hpp"

namespace agile::sim {

using EventFn = std::function<void()>;

class Simulation;

/// Handle to a periodic task. Allows cancellation and period changes (the
/// WSS reservation controller moves from a 2 s to a 30 s cadence once the
/// estimate stabilizes).
class PeriodicTask {
 public:
  void cancel() { alive_ = false; }
  bool alive() const { return alive_; }

  SimTime period() const { return period_; }
  void set_period(SimTime period) {
    AGILE_CHECK(period > 0);
    period_ = period;
  }

 private:
  friend class Simulation;
  explicit PeriodicTask(SimTime period, std::function<void(SimTime)> fn)
      : period_(period), fn_(std::move(fn)) {}

  bool alive_ = true;
  SimTime period_;
  std::function<void(SimTime)> fn_;
};

class Simulation {
 public:
  Simulation() { heap_.reserve(kInitialQueueCapacity); }
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  SimTime now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (>= now).
  void schedule_at(SimTime t, EventFn fn);

  /// Schedules `fn` `dt` after now.
  void schedule_after(SimTime dt, EventFn fn) {
    AGILE_CHECK(dt >= 0);
    schedule_at(now_ + dt, std::move(fn));
  }

  /// Registers a periodic task firing every `period`, first one period from
  /// now. The task receives the current simulated time. The returned handle
  /// stays valid until the simulation is destroyed; `PeriodicTask::cancel`
  /// stops it.
  std::shared_ptr<PeriodicTask> schedule_periodic(
      SimTime period, std::function<void(SimTime)> fn);

  /// Runs events until the queue is exhausted or `stop()` is called.
  void run();

  /// Runs events with time <= `t`, then sets now to `t`.
  void run_until(SimTime t);

  /// Executes the single earliest pending event. Returns false if none.
  bool step();

  /// Stops `run()`/`run_until()` after the current event returns.
  void stop() { stopped_ = true; }
  bool stopped() const { return stopped_; }
  /// Clears a previous `stop()` without running anything (external drivers —
  /// the lane coordinator — interleave their own work with `step()` calls).
  void clear_stop() { stopped_ = false; }

  /// Time of the earliest pending event, or -1 when the queue is empty.
  SimTime next_event_time() const {
    return heap_.empty() ? -1 : heap_.front().time;
  }

  /// Number of events executed so far (for tests and diagnostics).
  std::uint64_t events_executed() const { return events_executed_; }
  /// Events queued and not yet executed.
  std::size_t pending_events() const { return heap_.size(); }

 private:
  static constexpr std::size_t kInitialQueueCapacity = 1024;

  struct Event {
    SimTime time;
    std::uint64_t seq;
    EventFn fn;  ///< One-shot payload; empty for periodic entries.
    PeriodicTask* periodic;  ///< Set for periodic entries; owned by tasks_.
  };
  struct EventOrder {
    // Max-heap comparator where "later" sorts lower, leaving the earliest
    // (time, seq) at the heap root.
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  void push_event(Event ev);
  Event pop_event();
  void push_periodic(PeriodicTask* task, SimTime at);

  /// Deep auditor: a Simulation is single-threaded state — the parallel
  /// sweep runner gives every worker its own instance, and nothing
  /// synchronizes the event heap. Binds the simulation to the first thread
  /// that drives it and aborts if a different thread ever does (cross-worker
  /// aliasing). Called from run()/run_until()/step() when audit::enabled().
  void audit_bind_thread();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  std::uint64_t events_executed_ = 0;
  std::vector<Event> heap_;
  // Keep-alive for periodic tasks: the queue stores raw pointers (re-arming
  // must not fatten every Event), and the documented contract is that
  // handles stay valid until the simulation is destroyed anyway.
  std::vector<std::shared_ptr<PeriodicTask>> tasks_;
  // Thread that first drove this simulation (audit_bind_thread). Atomic so
  // the auditor itself is race-free under TSan.
  std::atomic<std::thread::id> audit_owner_{};
};

}  // namespace agile::sim
