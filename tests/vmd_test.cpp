#include <gtest/gtest.h>

#include <initializer_list>
#include <string>
#include <vector>

#include "net/network.hpp"
#include "vmd/vmd.hpp"
#include "vmd/vmd_swap_device.hpp"

namespace agile::vmd {
namespace {

/// A per-VM device attached at `node` over `servers`, registered in order.
VmdSwapDevice make_device(net::Network* net, net::NodeId node,
                          std::initializer_list<VmdServer*> servers,
                          Bytes capacity = 4_MiB, std::string name = "blk") {
  VmdSwapDevice dev(std::move(name), net, node, capacity);
  for (VmdServer* server : servers) dev.register_server(server);
  return dev;
}

/// Writes `n` freshly allocated slots; returns them in allocation order.
std::vector<swap::SwapSlot> write_pages(VmdSwapDevice& dev, int n) {
  std::vector<swap::SwapSlot> slots;
  for (int i = 0; i < n; ++i) {
    slots.push_back(dev.allocate_slot());
    dev.write_page(slots.back());
  }
  return slots;
}

struct Fixture {
  net::Network net;
  net::NodeId source, dest, inter1, inter2;
  VmdServer s1, s2;

  Fixture()
      : net(net::NetworkConfig{}),
        source(net.add_node("source")),
        dest(net.add_node("dest")),
        inter1(net.add_node("inter1")),
        inter2(net.add_node("inter2")),
        s1(inter1, {.capacity = 1_MiB, .service_time = 3}),
        s2(inter2, {.capacity = 1_MiB, .service_time = 3}) {}

  VmdSwapDevice device(std::string name = "blk") {
    return make_device(&net, source, {&s1, &s2}, 4_MiB, std::move(name));
  }
};

TEST(VmdServer, AllocateOnWriteOnly) {
  net::Network net;
  net::NodeId n = net.add_node("i");
  VmdServer s(n, {.capacity = 2 * kPageSize, .service_time = 3});
  EXPECT_EQ(s.used_bytes(), 0u);  // nothing reserved in advance
  EXPECT_EQ(s.store_page(), VmdTier::kMemory);
  EXPECT_EQ(s.store_page(), VmdTier::kMemory);
  EXPECT_EQ(s.store_page(), std::nullopt);  // full, no disk tier
  EXPECT_EQ(s.free_bytes(), 0u);
  s.drop_page(VmdTier::kMemory);
  EXPECT_EQ(s.store_page(), VmdTier::kMemory);
}

TEST(VmdServer, DiskTierAbsorbsOverflow) {
  net::Network net;
  net::NodeId n = net.add_node("i");
  VmdServerConfig cfg;
  cfg.capacity = 2 * kPageSize;
  cfg.disk_capacity = 2 * kPageSize;
  VmdServer s(n, cfg);
  EXPECT_EQ(s.store_page(), VmdTier::kMemory);
  EXPECT_EQ(s.store_page(), VmdTier::kMemory);
  EXPECT_EQ(s.store_page(), VmdTier::kDisk);  // spills
  EXPECT_EQ(s.store_page(), VmdTier::kDisk);
  EXPECT_EQ(s.store_page(), std::nullopt);  // both tiers full
  EXPECT_EQ(s.memory_pages(), 2u);
  EXPECT_EQ(s.disk_pages(), 2u);
  // Disk reads are orders of magnitude slower than memory service.
  SimTime mem_lat = s.read_latency(VmdTier::kMemory);
  SimTime disk_lat = s.read_latency(VmdTier::kDisk);
  EXPECT_GT(disk_lat, 10 * mem_lat);
  s.drop_page(VmdTier::kDisk);
  EXPECT_EQ(s.store_page(), VmdTier::kDisk);
  s.advance(sec(1));  // drains the tier device queue
}

TEST(VmdSwapDevice, RoundRobinSpreadsPages) {
  Fixture fx;
  VmdSwapDevice dev = fx.device();
  write_pages(dev, 100);
  EXPECT_EQ(fx.s1.used_pages(), 50u);
  EXPECT_EQ(fx.s2.used_pages(), 50u);
  EXPECT_EQ(dev.stored_pages(), 100u);
}

TEST(VmdSwapDevice, SkipsFullServerOnStaleCacheUntilHeartbeat) {
  net::Network net;
  net::NodeId host = net.add_node("host");
  VmdServer small(net.add_node("i1"), {.capacity = 4 * kPageSize});
  VmdServer big(net.add_node("i2"), {.capacity = 64 * kPageSize});
  VmdSwapDevice a = make_device(&net, host, {&small, &big}, 1_MiB, "a");
  VmdSwapDevice b = make_device(&net, host, {&small, &big}, 1_MiB, "b");
  // a alternates small/big and fills `small`; b's cache still shows it free.
  std::vector<swap::SwapSlot> a_slots = write_pages(a, 8);
  ASSERT_EQ(small.free_bytes(), 0u);
  // b tries `small` first, learns it is full, and lands every page on `big`.
  write_pages(b, 3);
  EXPECT_EQ(small.used_pages(), 4u);
  EXPECT_EQ(big.used_pages(), 7u);
  // Freed frames stay invisible to b until its next availability heartbeat.
  for (swap::SwapSlot slot : a_slots) a.free_slot(slot);
  write_pages(b, 1);
  EXPECT_EQ(small.used_pages(), 0u);
  b.update_availability();
  write_pages(b, 1);
  EXPECT_EQ(small.used_pages(), 1u);
  EXPECT_EQ(b.stored_pages(), 5u);
}

TEST(VmdSwapDevice, ReadFindsPageWherever) {
  Fixture fx;
  VmdSwapDevice dev = fx.device();
  for (swap::SwapSlot slot : write_pages(dev, 10)) {
    SimTime lat = dev.read_page(slot);
    EXPECT_GE(lat, 200);          // at least the RTT
    EXPECT_LT(lat, msec(2));      // remote memory, not disk
  }
}

TEST(VmdSwapDevice, FreeReleasesServerFrame) {
  Fixture fx;
  VmdSwapDevice dev = fx.device();
  swap::SwapSlot s = write_pages(dev, 1)[0];
  EXPECT_EQ(fx.s1.used_pages() + fx.s2.used_pages(), 1u);
  dev.free_slot(s);
  EXPECT_EQ(fx.s1.used_pages() + fx.s2.used_pages(), 0u);
  EXPECT_EQ(dev.stored_pages(), 0u);
}

TEST(VmdSwapDevice, ReadsConsumeNetworkBandwidth) {
  Fixture fx;
  VmdSwapDevice dev = fx.device();
  swap::SwapSlot s = write_pages(dev, 1)[0];
  fx.net.advance(msec(100));
  auto rx_before = fx.net.stats(fx.source).rx_bytes;
  dev.read_page(s);
  fx.net.advance(msec(100));
  EXPECT_GE(fx.net.stats(fx.source).rx_bytes - rx_before, kPageSize);
}

TEST(VmdSwapDevice, CongestedLinkSlowsReads) {
  Fixture fx;
  VmdSwapDevice dev = fx.device();
  swap::SwapSlot s = write_pages(dev, 1)[0];
  fx.net.advance(msec(100));
  SimTime idle = dev.read_page(s);
  // Saturate inter1 -> source with a bulk flow.
  net::FlowId f = fx.net.open_flow(fx.inter1, fx.source, [](Bytes) {});
  fx.net.offer(f, 10_GiB);
  fx.net.advance(sec(1));
  SimTime busy = dev.read_page(s);
  EXPECT_GT(busy, idle);
}

TEST(VmdSwapDevice, SwapInterfaceRoundTrip) {
  Fixture fx;
  VmdSwapDevice dev = fx.device();
  swap::SwapSlot s = dev.allocate_slot();
  dev.write_page(s);
  EXPECT_EQ(dev.used_slots(), 1u);
  EXPECT_EQ(dev.stored_pages(), 1u);
  SimTime lat = dev.read_page(s);
  EXPECT_GT(lat, 0);
  EXPECT_EQ(dev.stats().reads, 1u);
  EXPECT_EQ(dev.stats().writes, 1u);
  dev.free_slot(s);
  EXPECT_EQ(dev.used_slots(), 0u);
  EXPECT_EQ(dev.stored_pages(), 0u);
}

TEST(VmdSwapDevice, FreeingUnwrittenSlotIsSafe) {
  Fixture fx;
  VmdSwapDevice dev = fx.device();
  swap::SwapSlot s = dev.allocate_slot();
  dev.free_slot(s);  // never written; must not touch servers
  EXPECT_EQ(dev.stored_pages(), 0u);
}

TEST(VmdSwapDevice, PortableAcrossHosts) {
  Fixture fx;
  VmdSwapDevice dev = fx.device();
  swap::SwapSlot s = write_pages(dev, 1)[0];
  fx.net.advance(msec(100));
  // Migrate: the device re-attaches at the destination; the page is still
  // reachable without any data movement between source and dest, and the
  // read now lands on the destination's link.
  dev.attach_to(fx.dest);
  auto source_rx = fx.net.stats(fx.source).rx_bytes;
  auto dest_rx = fx.net.stats(fx.dest).rx_bytes;
  EXPECT_GT(dev.read_page(s), 0);
  fx.net.advance(msec(100));
  EXPECT_GE(fx.net.stats(fx.dest).rx_bytes - dest_rx, kPageSize);
  EXPECT_EQ(fx.net.stats(fx.source).rx_bytes, source_rx);
  EXPECT_EQ(dev.stored_pages(), 1u);
}

TEST(VmdSwapDevice, DevicesOverSharedServersKeepPrivatePlacement) {
  // The testbed builds one device per VM over the same servers; each keeps
  // its own round-robin cursor, availability cache and slot map.
  Fixture fx;
  VmdSwapDevice d1 = fx.device("blk1");
  VmdSwapDevice d2 = fx.device("blk2");
  swap::SwapSlot a = write_pages(d1, 1)[0];
  swap::SwapSlot b = write_pages(d2, 1)[0];
  EXPECT_EQ(a, b);  // same slot number in two namespaces
  EXPECT_EQ(fx.s1.used_pages(), 2u);  // each device's first write: server 0
  EXPECT_EQ(fx.s2.used_pages(), 0u);
  d1.free_slot(a);
  EXPECT_EQ(d1.stored_pages(), 0u);
  EXPECT_EQ(d2.stored_pages(), 1u);
  EXPECT_EQ(fx.s1.used_pages(), 1u);
  EXPECT_GT(d2.read_page(b), 0);
}

TEST(VmdSwapDevice, SpillsToDiskTierAndPrefersMemoryServers) {
  net::Network net;
  net::NodeId client_node = net.add_node("c");
  net::NodeId n1 = net.add_node("i1");
  net::NodeId n2 = net.add_node("i2");
  VmdServerConfig small;
  small.capacity = 4 * kPageSize;
  small.disk_capacity = 64 * kPageSize;
  VmdServer s1(n1, small);
  VmdServer s2(n2, small);
  VmdSwapDevice dev = make_device(&net, client_node, {&s1, &s2});
  // 8 pages fit in memory across the two servers; the rest hit disk.
  std::vector<swap::SwapSlot> slots = write_pages(dev, 20);
  EXPECT_EQ(s1.memory_pages() + s2.memory_pages(), 8u);
  EXPECT_EQ(s1.disk_pages() + s2.disk_pages(), 12u);
  // Reads from spilled pages still resolve (and are slower).
  SimTime mem_read = dev.read_page(slots.front());
  SimTime disk_read = dev.read_page(slots.back());
  EXPECT_GT(disk_read, mem_read);
  // Frees return capacity to the right tier.
  for (swap::SwapSlot slot : slots) dev.free_slot(slot);
  EXPECT_EQ(s1.used_pages() + s2.used_pages(), 0u);
}

TEST(VmdSwapDevice, WritesDebitAvailabilityCache) {
  // Each write debits the device's cached free memory for its server, so a
  // server whose memory the device has filled is skipped in favour of
  // another server's free memory rather than spilling to its own disk tier,
  // without waiting for a heartbeat.
  net::Network net;
  net::NodeId host = net.add_node("host");
  VmdServer a(net.add_node("i1"),
              {.capacity = 2 * kPageSize, .disk_capacity = 64 * kPageSize});
  VmdServer b(net.add_node("i2"), {.capacity = 64 * kPageSize});
  VmdSwapDevice dev = make_device(&net, host, {&a, &b});
  write_pages(dev, 6);
  EXPECT_EQ(a.memory_pages(), 2u);
  EXPECT_EQ(a.disk_pages(), 0u);
  EXPECT_EQ(b.memory_pages(), 4u);
}

TEST(VmdSwapDevice, DiskTierKeepsSwapDeviceUsable) {
  net::Network net;
  net::NodeId client_node = net.add_node("c");
  net::NodeId n1 = net.add_node("i1");
  VmdServerConfig cfg;
  cfg.capacity = 8 * kPageSize;
  cfg.disk_capacity = 1024 * kPageSize;
  VmdServer s1(n1, cfg);
  VmdSwapDevice dev = make_device(&net, client_node, {&s1});
  std::vector<swap::SwapSlot> slots = write_pages(dev, 100);
  EXPECT_EQ(dev.stored_pages(), 100u);
  for (swap::SwapSlot slot : slots) EXPECT_GT(dev.read_page(slot), 0);
  for (swap::SwapSlot slot : slots) dev.free_slot(slot);
  EXPECT_EQ(s1.used_pages(), 0u);
}

}  // namespace
}  // namespace agile::vmd
