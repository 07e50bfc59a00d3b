#include "sim/simulation.hpp"

#include <algorithm>

namespace agile::sim {

void Simulation::push_event(Event ev) {
  heap_.push_back(std::move(ev));
  std::push_heap(heap_.begin(), heap_.end(), EventOrder{});
}

Simulation::Event Simulation::pop_event() {
  std::pop_heap(heap_.begin(), heap_.end(), EventOrder{});
  Event ev = std::move(heap_.back());
  heap_.pop_back();
  return ev;
}

void Simulation::schedule_at(SimTime t, EventFn fn) {
  AGILE_CHECK_MSG(t >= now_, "cannot schedule into the past");
  push_event(Event{t, next_seq_++, std::move(fn), nullptr});
}

void Simulation::push_periodic(PeriodicTask* task, SimTime at) {
  push_event(Event{at, next_seq_++, nullptr, task});
}

std::shared_ptr<PeriodicTask> Simulation::schedule_periodic(
    SimTime period, std::function<void(SimTime)> fn) {
  AGILE_CHECK(period > 0);
  auto task = std::shared_ptr<PeriodicTask>(new PeriodicTask(period, std::move(fn)));
  tasks_.push_back(task);
  push_periodic(task.get(), now_ + period);
  return task;
}

void Simulation::audit_bind_thread() {
  const std::thread::id self = std::this_thread::get_id();
  std::thread::id owner = audit_owner_.load(std::memory_order_relaxed);
  if (owner == self) return;
  std::thread::id expected{};
  if (audit_owner_.compare_exchange_strong(expected, self,
                                           std::memory_order_relaxed)) {
    return;
  }
  AGILE_CHECK_S(expected == self)
      << "Simulation driven from a second thread (cross-worker aliasing): "
         "each parallel-sweep worker must own a private Simulation";
}

bool Simulation::step() {
  if (audit::enabled()) audit_bind_thread();
  if (heap_.empty()) return false;
  Event ev = pop_event();
  AGILE_CHECK(ev.time >= now_);
  now_ = ev.time;
  ++events_executed_;
  if (ev.periodic != nullptr) {
    PeriodicTask* task = ev.periodic;
    if (task->alive()) {
      task->fn_(now_);
      // Re-arm after the callback (it may cancel the task or change the
      // period); sequence numbering therefore matches the old closure-based
      // implementation exactly.
      if (task->alive()) push_periodic(task, now_ + task->period_);
    }
  } else {
    ev.fn();
  }
  return true;
}

void Simulation::run() {
  if (audit::enabled()) audit_bind_thread();
  stopped_ = false;
  while (!stopped_ && step()) {
  }
}

void Simulation::run_until(SimTime t) {
  if (audit::enabled()) audit_bind_thread();
  AGILE_CHECK(t >= now_);
  stopped_ = false;
  while (!stopped_) {
    if (heap_.empty() || heap_.front().time > t) break;
    step();
  }
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace agile::sim
