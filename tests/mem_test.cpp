#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mem/guest_memory.hpp"
#include "mem/pagemap.hpp"
#include "swap/swap_device.hpp"

namespace agile::mem {
namespace {

struct Fixture {
  std::shared_ptr<storage::SsdModel> ssd = std::make_shared<storage::SsdModel>();
  swap::LocalSwapDevice swap_dev{"swap0", ssd, 1_GiB};

  GuestMemory make(Bytes size, Bytes reservation) {
    GuestMemoryConfig cfg;
    cfg.size = size;
    cfg.reservation = reservation;
    return GuestMemory(cfg, &swap_dev, Rng(1, "mem"));
  }
};

TEST(GuestMemory, FreshMemoryIsUntouched) {
  Fixture fx;
  GuestMemory mem = fx.make(16_MiB, 16_MiB);
  EXPECT_EQ(mem.page_count(), 4096u);
  EXPECT_EQ(mem.resident_pages(), 0u);
  EXPECT_EQ(mem.swapped_pages(), 0u);
  EXPECT_EQ(mem.untouched_pages(), 4096u);
  EXPECT_EQ(mem.state(0), PageState::kUntouched);
  mem.check_consistency();
}

TEST(GuestMemory, FirstTouchIsMinorFault) {
  Fixture fx;
  GuestMemory mem = fx.make(16_MiB, 16_MiB);
  SimTime lat = mem.touch(5, /*write=*/false, 1);
  EXPECT_GE(lat, 0);
  EXPECT_EQ(mem.state(5), PageState::kResident);
  EXPECT_EQ(mem.stats().minor_faults, 1u);
  EXPECT_EQ(mem.stats().major_faults, 0u);
  // Second touch is the fast path.
  EXPECT_EQ(mem.touch(5, false, 2), 0);
  EXPECT_EQ(mem.stats().minor_faults, 1u);
}

TEST(GuestMemory, ReservationCapsResidency) {
  Fixture fx;
  GuestMemory mem = fx.make(16_MiB, 4_MiB);
  mem.prefill(mem.page_count(), 1);
  EXPECT_EQ(mem.resident_pages(), pages_for(4_MiB));
  EXPECT_EQ(mem.swapped_pages(), pages_for(12_MiB));
  EXPECT_EQ(mem.stats().swap_outs, pages_for(12_MiB));
  mem.check_consistency();
}

TEST(GuestMemory, SwapInIsMajorFault) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 4_MiB);
  mem.prefill(mem.page_count(), 1);
  // Find a swapped page and touch it.
  PageIndex victim = 0;
  while (!mem.is_swapped(victim)) ++victim;
  SimTime lat = mem.touch(victim, false, 2);
  EXPECT_GT(lat, 0);  // had to read the SSD
  EXPECT_EQ(mem.state(victim), PageState::kResident);
  EXPECT_EQ(mem.stats().major_faults, 1u);
  mem.check_consistency();
}

TEST(GuestMemory, CleanReFaultedPageKeepsSwapCopyUntilWrite) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 4_MiB);
  mem.prefill(mem.page_count(), 1);
  PageIndex p = 0;
  while (!mem.is_swapped(p)) ++p;
  swap::SwapSlot slot = mem.swap_slot(p);
  std::uint64_t used_before = fx.swap_dev.used_slots();
  mem.touch(p, /*write=*/false, 2);  // read fault: swap copy stays (swap cache)
  EXPECT_EQ(mem.swap_slot(p), slot);
  // p keeps its slot while resident, and the evicted victim allocated one.
  EXPECT_EQ(fx.swap_dev.used_slots(), used_before + 1);
  mem.touch(p, /*write=*/true, 3);  // write: swap cache dropped
  EXPECT_EQ(mem.swap_slot(p), swap::kNoSlot);
  EXPECT_EQ(fx.swap_dev.used_slots(), used_before);
  mem.check_consistency();
}

TEST(GuestMemory, CleanEvictionCostsNoWrite) {
  Fixture fx;
  // Tiny reservation: read-only re-faults cycle pages through the resident
  // set, and the evicted ones still hold valid swap copies → free drops.
  GuestMemory mem = fx.make(8_MiB, 64_KiB);
  mem.prefill(mem.page_count(), 1);
  std::uint64_t writes_before = fx.swap_dev.stats().writes;
  std::uint64_t faulted = 0;
  for (PageIndex p = 0; p < mem.page_count() && faulted < 1000; ++p) {
    if (mem.is_swapped(p)) {
      mem.touch(p, false, static_cast<std::uint32_t>(10 + faulted));
      ++faulted;
    }
  }
  EXPECT_GT(mem.stats().clean_drops, 900u);
  // Clean drops caused no swap-device writes.
  EXPECT_LT(fx.swap_dev.stats().writes - writes_before, 100u);
  mem.check_consistency();
}

TEST(GuestMemory, LruPrefersColdVictims) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 4_MiB);
  std::uint64_t hot = pages_for(2_MiB);
  // Make pages [0, hot) hot (touched every tick), rest cold.
  for (std::uint32_t tick = 1; tick <= 20; ++tick) {
    for (PageIndex p = 0; p < hot; ++p) mem.touch(p, false, tick);
  }
  // Fill with cold pages at old ticks, then add pressure at a recent tick.
  for (PageIndex p = hot; p < mem.page_count(); ++p) mem.touch(p, true, 21);
  for (PageIndex p = 0; p < hot; ++p) mem.touch(p, false, 22);
  // Now evict: the hot half should mostly survive.
  std::uint64_t hot_resident = 0;
  for (PageIndex p = 0; p < hot; ++p) hot_resident += mem.is_resident(p);
  EXPECT_GT(hot_resident, hot * 8 / 10);
}

TEST(GuestMemory, SetReservationShrinkEnforcedGradually) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 8_MiB);
  mem.prefill(mem.page_count(), 1);
  EXPECT_EQ(mem.resident_pages(), mem.page_count());
  mem.set_reservation(4_MiB);
  EXPECT_TRUE(mem.over_reservation());
  std::uint64_t evicted = mem.enforce_reservation(100);
  EXPECT_EQ(evicted, 100u);
  EXPECT_TRUE(mem.over_reservation());
  evicted = mem.enforce_reservation(1'000'000);
  EXPECT_EQ(mem.resident_pages(), pages_for(4_MiB));
  EXPECT_FALSE(mem.over_reservation());
  mem.check_consistency();
}

TEST(GuestMemory, DirtyLogRecordsWrites) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 8_MiB);
  Bitmap dirty(mem.page_count());
  mem.attach_dirty_log(&dirty);
  mem.touch(3, true, 1);
  mem.touch(4, false, 1);
  mem.touch(5, true, 1);
  EXPECT_TRUE(dirty.test(3));
  EXPECT_FALSE(dirty.test(4));
  EXPECT_TRUE(dirty.test(5));
  mem.detach_dirty_log();
  mem.touch(6, true, 1);
  EXPECT_FALSE(dirty.test(6));
}

TEST(GuestMemory, SwapInForTransferKeepsCleanCopy) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 4_MiB);
  mem.prefill(mem.page_count(), 1);
  PageIndex p = 0;
  while (!mem.is_swapped(p)) ++p;
  swap::SwapSlot slot = mem.swap_slot(p);
  std::uint64_t resident_before = mem.resident_pages();
  SimTime lat = mem.swap_in_for_transfer(p, 2);
  EXPECT_GT(lat, 0);
  EXPECT_TRUE(mem.is_resident(p));
  EXPECT_EQ(mem.swap_slot(p), slot);                 // copy kept
  EXPECT_EQ(mem.resident_pages(), resident_before);  // someone got evicted
  mem.check_consistency();
}

TEST(GuestMemory, PagemapMirrorsState) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 4_MiB);
  mem.prefill(mem.page_count(), 1);
  Pagemap pm(mem);
  std::uint64_t present = 0, swapped = 0;
  for (PageIndex p = 0; p < mem.page_count(); ++p) {
    PagemapEntry e = pm.entry(p);
    ASSERT_FALSE(e.present && e.swapped);
    if (e.present) ++present;
    if (e.swapped) {
      ++swapped;
      EXPECT_EQ(e.swap_offset, mem.swap_slot(p));
    }
  }
  EXPECT_EQ(present, mem.resident_pages());
  EXPECT_EQ(swapped, mem.swapped_pages());
}

TEST(GuestMemory, ReleasePageFreesFrameAndSlots) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 4_MiB);
  mem.prefill(mem.page_count(), 1);
  PageIndex res = 0;
  while (!mem.is_resident(res)) ++res;
  PageIndex swp = 0;
  while (!mem.is_swapped(swp)) ++swp;

  std::uint64_t resident_before = mem.resident_pages();
  mem.release_page(res);
  EXPECT_EQ(mem.state(res), PageState::kRemote);
  EXPECT_EQ(mem.resident_pages(), resident_before - 1);

  std::uint64_t slots_before = fx.swap_dev.used_slots();
  mem.release_page(swp);  // cold page: slot survives (portable device)
  EXPECT_EQ(mem.state(swp), PageState::kRemote);
  EXPECT_EQ(fx.swap_dev.used_slots(), slots_before);
  // Releasing again is a no-op.
  mem.release_page(swp);
  mem.check_consistency();
}

TEST(GuestMemory, DestinationInstallFlow) {
  Fixture fx;
  GuestMemory dst = fx.make(8_MiB, 4_MiB);
  dst.mark_all_remote();
  EXPECT_EQ(dst.remote_pages(), dst.page_count());

  dst.install_resident(0, 1);
  EXPECT_EQ(dst.state(0), PageState::kResident);

  swap::SwapSlot slot = fx.swap_dev.allocate_slot();
  dst.install_swapped(1, slot);
  EXPECT_EQ(dst.state(1), PageState::kSwapped);
  EXPECT_EQ(dst.swap_slot(1), slot);

  dst.install_untouched(2);
  EXPECT_EQ(dst.state(2), PageState::kUntouched);
  EXPECT_EQ(dst.remote_pages(), dst.page_count() - 3);
  dst.check_consistency();
}

TEST(GuestMemory, InstallRespectsReservation) {
  Fixture fx;
  GuestMemory dst = fx.make(8_MiB, 2_MiB);
  dst.mark_all_remote();
  for (PageIndex p = 0; p < dst.page_count(); ++p) dst.install_resident(p, 1);
  EXPECT_EQ(dst.resident_pages(), pages_for(2_MiB));
  EXPECT_EQ(dst.swapped_pages(), dst.page_count() - pages_for(2_MiB));
  dst.check_consistency();
}

TEST(GuestMemory, TrueWorkingSetCountsRecentPages) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 8_MiB);
  for (PageIndex p = 0; p < 100; ++p) mem.touch(p, false, 10);
  for (PageIndex p = 100; p < 300; ++p) mem.touch(p, false, 95);
  EXPECT_EQ(mem.true_working_set_pages(100, 10), 200u);
  EXPECT_EQ(mem.true_working_set_pages(100, 90), 300u);
}

TEST(GuestMemory, TrueWorkingSetKeepsStampsOfPagesThatLeftResidency) {
  // Three tick groups of 16 pages through a 16-page reservation: most pages
  // leave the resident table (eviction, release_page, invalidate_to_remote)
  // and a few swap back in. Every page keeps its last-access stamp.
  Fixture fx;
  GuestMemory mem = fx.make(256_KiB, 64_KiB);  // 64 pages, 16 resident
  for (PageIndex p = 0; p < 16; ++p) mem.touch(p, /*write=*/true, 1000);
  for (PageIndex p = 16; p < 32; ++p) mem.touch(p, /*write=*/false, 2000);
  for (PageIndex p = 32; p < 48; ++p) mem.touch(p, /*write=*/true, 3000);
  EXPECT_EQ(mem.resident_pages(), 16u);
  EXPECT_EQ(mem.swapped_pages(), 32u);

  std::vector<PageIndex> resident, swapped;
  for (PageIndex p = 0; p < 48; ++p) {
    (mem.is_resident(p) ? resident : swapped).push_back(p);
  }
  mem.release_page(resident[0]);
  mem.release_page(swapped[0]);
  mem.invalidate_to_remote(resident[1], /*free_slot=*/true);
  mem.invalidate_to_remote(swapped[1], /*free_slot=*/true);
  EXPECT_EQ(mem.remote_pages(), 4u);

  // Four still-swapped pages of the oldest group fault back in; each swap-in
  // evicts another page.
  std::uint64_t swapped_in = 0;
  for (PageIndex p = 0; p < 16 && swapped_in < 4; ++p) {
    if (!mem.is_swapped(p)) continue;
    mem.touch(p, /*write=*/false, 4000);
    ++swapped_in;
  }
  ASSERT_EQ(swapped_in, 4u);
  EXPECT_EQ(mem.stats().major_faults, 4u);

  EXPECT_EQ(mem.true_working_set_pages(4000, 0), 4u);
  EXPECT_EQ(mem.true_working_set_pages(4000, 999), 4u);
  EXPECT_EQ(mem.true_working_set_pages(4000, 1000), 20u);
  EXPECT_EQ(mem.true_working_set_pages(4000, 2000), 36u);
  EXPECT_EQ(mem.true_working_set_pages(4000, 2999), 36u);
  EXPECT_EQ(mem.true_working_set_pages(4000, 3000), 48u);
  EXPECT_EQ(mem.true_working_set_pages(4000, 4000), 48u);  // untouched: never
  mem.check_consistency();
}

TEST(GuestMemory, SwapDeviceStatsSeeTraffic) {
  Fixture fx;
  GuestMemory mem = fx.make(8_MiB, 4_MiB);
  mem.prefill(mem.page_count(), 1);
  EXPECT_EQ(fx.swap_dev.stats().writes, pages_for(4_MiB));
  PageIndex p = 0;
  while (!mem.is_swapped(p)) ++p;
  mem.touch(p, false, 2);
  EXPECT_EQ(fx.swap_dev.stats().reads, 1u);
}

}  // namespace
}  // namespace agile::mem
