#include "migration/postcopy.hpp"

#include "trace/trace.hpp"

namespace agile::migration {

void PostcopyMigration::on_tick(SimTime, SimTime, std::uint32_t) {
  if (flipping_) return;
  // "Upon beginning the migration, the VM is immediately suspended."
  owed_.reset(page_count(), /*initial=*/true);
  begin_suspend();
  AGILE_TRACE_SPAN_BEGIN("migration", "flip", trace_id());
  metrics_.bytes_transferred += config_.cpu_state_bytes;
  // Fenced for uniformity: the CPU state is the first message of the
  // migration, so the fence is trivially satisfied on delivery.
  stream_->send_fenced(config_.cpu_state_bytes, [this] {
    complete_switchover();
    AGILE_TRACE_SPAN_END("migration", "flip", trace_id());
    start_push(2);
  });
  flipping_ = true;
  set_phase(1, "flip-wait");
}

}  // namespace agile::migration
