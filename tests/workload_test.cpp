#include <gtest/gtest.h>

#include <memory>

#include "mem/guest_memory.hpp"
#include "net/network.hpp"
#include "swap/swap_device.hpp"
#include "vm/virtual_machine.hpp"
#include "workload/oltp.hpp"
#include "workload/ycsb.hpp"

namespace agile::workload {
namespace {

struct Fixture {
  net::Network net;
  net::NodeId host_node, client_node;
  std::shared_ptr<storage::SsdModel> ssd = std::make_shared<storage::SsdModel>();
  swap::LocalSwapDevice swap_dev{"swap", ssd, 4_GiB};
  vm::VirtualMachine* machine = nullptr;
  std::unique_ptr<vm::VirtualMachine> machine_owned;

  explicit Fixture(Bytes vm_size = 512_MiB, Bytes reservation = 512_MiB) {
    host_node = net.add_node("host");
    client_node = net.add_node("client");
    mem::GuestMemoryConfig mc;
    mc.size = vm_size;
    mc.reservation = reservation;
    auto memory = std::make_unique<mem::GuestMemory>(mc, &swap_dev, Rng(1, "m"));
    vm::VmConfig vc;
    vc.memory = vm_size;
    vc.reservation = reservation;
    machine_owned = std::make_unique<vm::VirtualMachine>(vc, std::move(memory),
                                                         host_node);
    machine = machine_owned.get();
  }

  YcsbConfig ycsb_cfg() {
    YcsbConfig cfg;
    cfg.dataset_bytes = 256_MiB;
    cfg.guest_os_bytes = 16_MiB;
    cfg.active_bytes = 64_MiB;
    return cfg;
  }
};

TEST(Ycsb, LoadTouchesDatasetAndGuestOs) {
  Fixture fx;
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, fx.ycsb_cfg(), Rng(2, "y"));
  w.load(0);
  EXPECT_EQ(fx.machine->memory().resident_pages(),
            pages_for(16_MiB) + pages_for(256_MiB));
}

TEST(Ycsb, ThroughputEmergesFromOpCost) {
  Fixture fx;
  YcsbConfig cfg = fx.ycsb_cfg();
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(2, "y"));
  w.load(0);
  std::uint64_t ops = w.run_quantum(msec(100), 1);
  // width = min(concurrency=8, 4*vcpus=8); per-op = 45 µs + ~210 µs RTT.
  // ~ 8 * 100000 / 255 ≈ 3100 ops per 100 ms.
  EXPECT_GT(ops, 2000u);
  EXPECT_LT(ops, 5000u);
  EXPECT_EQ(w.ops_total(), ops);
}

TEST(Ycsb, MemoryPressureCollapsesThroughput) {
  // Reservation far below the active set: most accesses fault to the SSD.
  Fixture fx(512_MiB, 32_MiB);
  YcsbConfig cfg = fx.ycsb_cfg();
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(2, "y"));
  w.load(0);
  std::uint64_t pressured = 0;
  for (int q = 0; q < 10; ++q) {
    pressured += w.run_quantum(msec(100), static_cast<std::uint32_t>(q + 1));
    fx.ssd->advance(msec(100));
  }
  Fixture fx2(512_MiB, 512_MiB);
  YcsbWorkload w2(fx2.machine, &fx2.net, fx2.client_node, cfg, Rng(2, "y"));
  w2.load(0);
  std::uint64_t unpressured = 0;
  for (int q = 0; q < 10; ++q) {
    unpressured += w2.run_quantum(msec(100), static_cast<std::uint32_t>(q + 1));
    fx2.ssd->advance(msec(100));
  }
  EXPECT_LT(pressured * 5, unpressured);  // at least 5x collapse
}

TEST(Ycsb, WritesDirtyPages) {
  Fixture fx;
  YcsbConfig cfg = fx.ycsb_cfg();
  cfg.read_fraction = 0.5;
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(2, "y"));
  w.load(0);
  Bitmap dirty(fx.machine->page_count());
  fx.machine->memory().attach_dirty_log(&dirty);
  w.run_quantum(msec(100), 1);
  EXPECT_GT(dirty.count(), 100u);
}

TEST(Ycsb, ReadOnlyWorkloadDirtiesNothing) {
  Fixture fx;
  YcsbConfig cfg = fx.ycsb_cfg();
  cfg.read_fraction = 1.0;
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(2, "y"));
  w.load(0);
  Bitmap dirty(fx.machine->page_count());
  fx.machine->memory().attach_dirty_log(&dirty);
  w.run_quantum(msec(100), 1);
  EXPECT_EQ(dirty.count(), 0u);
}

TEST(Ycsb, AccessesStayInActivePrefix) {
  Fixture fx;
  YcsbConfig cfg = fx.ycsb_cfg();
  cfg.read_fraction = 1.0;
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(2, "y"));
  w.load(0);
  std::uint32_t tick = 100;
  w.run_quantum(msec(500), tick);
  // Pages beyond the active prefix must not have tick-100 accesses.
  const mem::GuestMemory& memory = fx.machine->memory();
  std::uint64_t active_end = w.dataset_base() + pages_for(cfg.active_bytes);
  EXPECT_EQ(memory.true_working_set_pages(tick, 0),
            memory.true_working_set_pages(tick, 0));
  std::uint64_t ws = memory.true_working_set_pages(tick, 0);
  EXPECT_LE(ws, active_end);
}

TEST(Ycsb, SetActiveBytesWidensTouchedRange) {
  Fixture fx;
  YcsbConfig cfg = fx.ycsb_cfg();
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(2, "y"));
  w.load(0);
  EXPECT_EQ(w.active_bytes(), 64_MiB);
  w.set_active_bytes(1_GiB);  // clamped to dataset
  EXPECT_EQ(w.active_bytes(), 256_MiB);
  w.set_active_bytes(128_MiB);
  EXPECT_EQ(w.active_bytes(), 128_MiB);
}

TEST(Ycsb, OpsConsumeNetworkBandwidth) {
  Fixture fx;
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, fx.ycsb_cfg(), Rng(2, "y"));
  w.load(0);
  std::uint64_t ops = w.run_quantum(msec(100), 1);
  fx.net.advance(msec(100));
  EXPECT_GE(fx.net.stats(fx.host_node).tx_bytes, ops * 1024);
}

TEST(Ycsb, CongestedNetworkLowersThroughput) {
  Fixture fx;
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, fx.ycsb_cfg(), Rng(2, "y"));
  w.load(0);
  std::uint64_t free_ops = w.run_quantum(msec(100), 1);
  // Saturate host -> client (the response direction).
  net::FlowId f = fx.net.open_flow(fx.host_node, fx.client_node, [](Bytes) {});
  fx.net.offer(f, 10_GiB);
  fx.net.advance(sec(1));
  std::uint64_t congested_ops = w.run_quantum(msec(100), 2);
  EXPECT_LT(congested_ops * 2, free_ops);
}

TEST(Ycsb, ZipfianSkewsTouches) {
  Fixture fx;
  YcsbConfig cfg = fx.ycsb_cfg();
  cfg.zipf_theta = 0.99;
  cfg.read_fraction = 1.0;
  YcsbWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(2, "y"));
  w.load(0);
  w.run_quantum(sec(1), 50);
  // Under heavy skew the recently-touched set is much smaller than the
  // active prefix.
  std::uint64_t ws = fx.machine->memory().true_working_set_pages(50, 0);
  EXPECT_LT(ws, pages_for(cfg.active_bytes) / 2);
}

TEST(Oltp, TransactionsAreSlowerThanKvOps) {
  Fixture fx;
  OltpConfig cfg;
  cfg.dataset_bytes = 256_MiB;
  cfg.guest_os_bytes = 16_MiB;
  OltpWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(3, "o"));
  w.load(0);
  std::uint64_t txns = w.run_quantum(sec(1), 1);
  // ~ concurrency(4) / 28 ms ≈ 140 tps.
  EXPECT_GT(txns, 50u);
  EXPECT_LT(txns, 400u);
}

TEST(Oltp, WriteTransactionsDirtyMultiplePages) {
  Fixture fx;
  OltpConfig cfg;
  cfg.dataset_bytes = 256_MiB;
  cfg.guest_os_bytes = 16_MiB;
  cfg.write_txn_fraction = 1.0;
  OltpWorkload w(fx.machine, &fx.net, fx.client_node, cfg, Rng(3, "o"));
  w.load(0);
  Bitmap dirty(fx.machine->page_count());
  fx.machine->memory().attach_dirty_log(&dirty);
  std::uint64_t txns = w.run_quantum(sec(1), 1);
  EXPECT_GT(dirty.count(), txns);  // several dirtied pages per txn
}

}  // namespace
}  // namespace agile::workload
