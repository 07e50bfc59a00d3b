// Post-copy live migration (the Hines/Deshpande/Gopalan baseline).
//
// The VM is suspended immediately; once the CPU state lands, execution
// resumes at the destination with *no* memory. Two mechanisms fill it:
// demand paging (guest faults trap into the fault engine, which fetches the
// page from the source over the network — the source first swapping it in
// from its SSD if it was cold) and an active push sweep from the source.
// Every page travels exactly once; duplicates from push/fault races are
// detected at the receiver and dropped. Source memory is freed progressively
// as pages are delivered, which is what relieves source memory pressure.
//
// Both mechanisms are the manager's shared post-flip push with the whole
// guest owed; Agile's post-flip phase is the same push over its dirty set.
#pragma once

#include "migration/migration.hpp"

namespace agile::migration {

class PostcopyMigration final : public MigrationManager {
 public:
  using MigrationManager::MigrationManager;

  const char* technique() const override { return "post-copy"; }

  /// Everything the destination does not yet hold (push + demand debt).
  std::uint64_t pages_owed() const override {
    return page_count() - received_.count();
  }

 protected:
  void on_tick(SimTime now, SimTime dt, std::uint32_t tick) override;

 private:
  bool flipping_ = false;  ///< CPU state sent; the push starts on its arrival.
};

}  // namespace agile::migration
