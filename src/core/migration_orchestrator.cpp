#include "core/migration_orchestrator.hpp"

#include <algorithm>

#include "util/log.hpp"

namespace agile::core {

MigrationOrchestrator::MigrationOrchestrator(Testbed* testbed,
                                             MigrationOrchestratorConfig config)
    : testbed_(testbed), config_(config) {
  AGILE_CHECK(testbed_ != nullptr);
  AGILE_CHECK(config_.per_link_in_flight_cap >= 1);
}

MigrationOrchestrator::~MigrationOrchestrator() { stop(); }

void MigrationOrchestrator::track(VmHandle* handle) {
  AGILE_CHECK(handle != nullptr);
  AGILE_CHECK_MSG(handle->per_vm_swap != nullptr,
                  "orchestration requires per-VM swap devices");
  AGILE_CHECK_MSG(monitor_ == nullptr, "track VMs before start()");
  entries_.push_back({handle, std::make_unique<wss::ReservationController>(
                                  &testbed_->cluster(), handle->machine,
                                  config_.wss)});
}

void MigrationOrchestrator::start() {
  AGILE_CHECK_MSG(monitor_ == nullptr, "already started");
  started_at_ = testbed_->cluster().simulation().now();
  for (Entry& e : entries_) e.controller->start();
  monitor_ = testbed_->cluster().simulation().schedule_periodic(
      config_.check_interval, [this](SimTime now) { evaluate(now); });
}

void MigrationOrchestrator::stop() {
  if (monitor_ != nullptr) {
    monitor_->cancel();
    monitor_.reset();
  }
  for (Entry& e : entries_) e.controller->stop();
}

Bytes MigrationOrchestrator::wss_estimate(const VmHandle* handle) const {
  for (const Entry& e : entries_) {
    if (e.handle == handle) return e.controller->wss_estimate();
  }
  AGILE_CHECK_MSG(false, "VM not tracked");
  return 0;
}

Bytes MigrationOrchestrator::reserved_bytes_at(const host::Host* host) const {
  Bytes total = 0;
  for (const InFlight& f : in_flight_) {
    if (f.dest == host && !host->has_vm(f.handle->machine)) {
      total += f.reserved_wss;
    }
  }
  return total;
}

void MigrationOrchestrator::bind_stats(stats::Registry* registry) {
  if (registry == nullptr) {
    stats_ = StatsCells{};
    return;
  }
  stats_.evaluations = registry->counter(
      "agile_orchestrator_evaluations_total", {},
      "Periodic watermark evaluation sweeps run");
  stats_.decisions = registry->counter(
      "agile_orchestrator_decisions_total", {},
      "Pressured decisions recorded (victims selected)");
  stats_.launches = registry->counter(
      "agile_orchestrator_launches_total", {},
      "Migrations launched (admissions)");
  stats_.deferrals = registry->counter(
      "agile_orchestrator_deferrals_total", {},
      "Victims deferred (no admissible destination or link cap)");
  stats_.insufficient = registry->counter(
      "agile_orchestrator_insufficient_total", {},
      "Decisions where even migrating every tracked VM leaves pressure");
  stats_.in_flight = registry->gauge(
      "agile_orchestrator_in_flight", {},
      "Launched migrations not yet completed");
  stats_.reserved_bytes = registry->gauge(
      "agile_orchestrator_reserved_bytes", {},
      "Admission reservations held by in-flight migrations");
}

std::size_t MigrationOrchestrator::migrations_in_flight() const {
  std::size_t count = 0;
  for (const auto& m : migrations_) count += !m->completed();
  return count;
}

bool MigrationOrchestrator::vm_in_flight(const VmHandle* handle) const {
  for (const InFlight& f : in_flight_) {
    if (f.handle == handle) return true;
  }
  return false;
}

std::size_t MigrationOrchestrator::link_load(const host::Host* source,
                                             const host::Host* dest) const {
  std::size_t count = 0;
  for (const InFlight& f : in_flight_) {
    count += f.source == source && f.dest == dest;
  }
  return count;
}

Bytes MigrationOrchestrator::committed_bytes(host::Host* host) const {
  Bytes committed = host->config().host_os_bytes;
  for (std::size_t i = 0; i < host->vm_count(); ++i) {
    const vm::VirtualMachine* machine = host->vm_at(i);
    Bytes claim = machine->memory().resident_bytes();
    for (const Entry& e : entries_) {
      if (e.handle->machine == machine) {
        claim = e.controller->wss_estimate();
        break;
      }
    }
    committed += claim;
  }
  // Arrivals not yet attached: admission reservations of in-flight
  // migrations targeting this host.
  return committed + reserved_bytes_at(host);
}

void MigrationOrchestrator::retire_completed() {
  in_flight_.erase(std::remove_if(in_flight_.begin(), in_flight_.end(),
                                  [](const InFlight& f) {
                                    return f.migration->completed();
                                  }),
                   in_flight_.end());
}

bool MigrationOrchestrator::estimates_stable() const {
  for (const Entry& e : entries_) {
    if (!e.controller->stable()) return false;
  }
  return true;
}

bool MigrationOrchestrator::estimates_ready() {
  if (!config_.wait_for_stable_estimates) return true;
  if (!estimates_ready_ && estimates_stable()) {
    estimates_ready_ = true;  // one-shot: later instability is pressure
  }
  return estimates_ready_;
}

bool MigrationOrchestrator::launch_rebalance(VmHandle* handle,
                                             host::Host* dest) {
  AGILE_CHECK(handle != nullptr && dest != nullptr);
  retire_completed();
  Entry* entry = nullptr;
  for (Entry& e : entries_) {
    if (e.handle == handle) {
      entry = &e;
      break;
    }
  }
  AGILE_CHECK_MSG(entry != nullptr, "rebalance of an untracked VM");
  host::Host* source = testbed_->host_of(handle->machine);
  AGILE_CHECK_MSG(source != nullptr, "rebalance victim resides on no host");
  AGILE_CHECK_MSG(source != dest, "rebalance destination is the source");
  if (vm_in_flight(handle)) return false;
  if (link_load(source, dest) >= config_.per_link_in_flight_cap) return false;
  Bytes estimate = entry->controller->wss_estimate();
  AGILE_LOG_INFO("orchestrator: rebalancing %s (WSS %.1f GiB) from %s to %s",
                 handle->machine->name().c_str(), to_gib(estimate),
                 source->name().c_str(), dest->name().c_str());
  migrations_.push_back(
      testbed_->make_migration_to(config_.technique, *handle, dest, estimate));
  migrations_.back()->start();
  in_flight_.push_back(
      {migrations_.back().get(), handle, source, dest, estimate});
  if (stats_.launches != nullptr) stats_.launches->inc();
  publish_in_flight_stats();
  if (on_migration_) on_migration_(handle, dest);
  return true;
}

void MigrationOrchestrator::evaluate(SimTime now) {
  retire_completed();
  if (stats_.evaluations != nullptr) stats_.evaluations->inc();
  // Publish after retiring completed migrations and again after the host
  // sweep below: a migration launched this sweep must be visible to every
  // scrape between now and the next evaluation, or a short migration
  // (launch and completion inside one check interval) never shows up.
  publish_in_flight_stats();
  if (now - started_at_ < config_.warmup) return;
  if (!estimates_ready()) return;
  // Every host is a potential source; evaluation order is host index order,
  // so one sweep's launches (and their destination reservations) are
  // deterministic.
  for (std::size_t h = 0; h < testbed_->host_count(); ++h) {
    evaluate_host(now, testbed_->host_at(h));
  }
  publish_in_flight_stats();
}

void MigrationOrchestrator::publish_in_flight_stats() {
  if (stats_.in_flight == nullptr && stats_.reserved_bytes == nullptr) return;
  Bytes reserved = 0;
  for (const InFlight& f : in_flight_) reserved += f.reserved_wss;
  if (stats_.in_flight != nullptr) {
    stats_.in_flight->set(static_cast<std::int64_t>(in_flight_.size()));
  }
  if (stats_.reserved_bytes != nullptr) {
    stats_.reserved_bytes->set(static_cast<std::int64_t>(reserved));
  }
}

void MigrationOrchestrator::evaluate_host(SimTime now, host::Host* source) {
  std::vector<wss::VmPressure> pressures;
  std::vector<Entry*> present;
  for (Entry& e : entries_) {
    if (!source->has_vm(e.handle->machine)) continue;
    // A departing VM's pages still sit on the source, but its migration is
    // already relieving it; counting it would double-trigger.
    if (vm_in_flight(e.handle)) continue;
    pressures.push_back({e.handle->machine->name(),
                         e.controller->wss_estimate()});
    present.push_back(&e);
  }
  last_decision_ = wss::evaluate_watermarks(source->ram(),
                                            source->config().host_os_bytes,
                                            pressures, config_.watermarks);
  if (!last_decision_.pressure || last_decision_.victims.empty()) return;
  if (last_decision_.insufficient) {
    if (stats_.insufficient != nullptr) stats_.insufficient->inc();
    AGILE_LOG_WARN(
        "orchestrator: %s stays over the low watermark even if every "
        "tracked VM leaves (aggregate after %.2f GiB)",
        source->name().c_str(), to_gib(last_decision_.aggregate_after));
  }

  FleetDecision record;
  record.time = now;
  record.source_host = source->name();
  record.trigger = last_decision_;

  // Candidate destinations: every other host, in index order, with its
  // currently committed bytes (tracked WSS + in-flight reservations).
  std::vector<host::Host*> candidates;
  std::vector<wss::HostHeadroom> headrooms;
  for (std::size_t i = 0; i < testbed_->host_count(); ++i) {
    host::Host* dest = testbed_->host_at(i);
    if (dest == source) continue;
    candidates.push_back(dest);
    headrooms.push_back(
        {dest->name(), dest->ram(), committed_bytes(dest), dest->rack()});
  }
  std::vector<Bytes> victim_wss;
  victim_wss.reserve(last_decision_.victims.size());
  for (std::size_t idx : last_decision_.victims) {
    victim_wss.push_back(pressures[idx].wss);
  }
  wss::PlacementPolicy policy = config_.rack_aware_placement
                                    ? wss::PlacementPolicy::kRackAware
                                    : wss::PlacementPolicy::kBestFit;
  std::vector<std::size_t> placement = wss::place_victims(
      victim_wss, headrooms, config_.watermarks.low, policy, source->rack());

  for (std::size_t v = 0; v < last_decision_.victims.size(); ++v) {
    Entry* victim = present[last_decision_.victims[v]];
    if (placement[v] == wss::kNoPlacement) {
      ++record.deferred;
      if (stats_.deferrals != nullptr) stats_.deferrals->inc();
      continue;
    }
    host::Host* dest = candidates[placement[v]];
    // The cap check runs after placement, so a capped victim's reservation
    // is still held against its candidate for the rest of this decision —
    // conservative for one round; the victim retries next evaluation.
    if (link_load(source, dest) >= config_.per_link_in_flight_cap) {
      ++record.deferred;
      if (stats_.deferrals != nullptr) stats_.deferrals->inc();
      continue;
    }
    Bytes estimate = victim->controller->wss_estimate();
    AGILE_LOG_INFO(
        "orchestrator: %s aggregate WSS %.1f GiB over the high watermark; "
        "migrating %s (WSS %.1f GiB) to %s",
        source->name().c_str(), to_gib(last_decision_.aggregate_wss),
        victim->handle->machine->name().c_str(), to_gib(estimate),
        dest->name().c_str());
    migrations_.push_back(testbed_->make_migration_to(
        config_.technique, *victim->handle, dest, estimate));
    migrations_.back()->start();
    in_flight_.push_back(
        {migrations_.back().get(), victim->handle, source, dest, estimate});
    record.launches.push_back(
        {victim->handle->machine->name(), dest->name(), estimate});
    if (stats_.launches != nullptr) stats_.launches->inc();
    if (on_migration_) on_migration_(victim->handle, dest);
  }
  if (stats_.decisions != nullptr) stats_.decisions->inc();
  decisions_.push_back(std::move(record));
}

}  // namespace agile::core
