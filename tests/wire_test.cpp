#include <gtest/gtest.h>

#include <vector>

#include "migration/wire.hpp"

namespace agile::migration {
namespace {

struct Fixture {
  net::Network net;
  net::NodeId a, b;
  Fixture() : a(net.add_node("a")), b(net.add_node("b")) {}
};

TEST(WireStream, DeliversMessagesInOrder) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  std::vector<int> order;
  ws.send(1000, [&] { order.push_back(1); });
  ws.send(1000, [&] { order.push_back(2); });
  ws.send(1000, [&] { order.push_back(3); });
  fx.net.advance(msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_TRUE(ws.idle());
  EXPECT_EQ(ws.delivered_bytes(), 3000u);
}

TEST(WireStream, PartialDeliveryDefersCallback) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  bool delivered = false;
  // ~11.7 MB/100ms at 1 Gbps: a 20 MB message needs two quanta.
  ws.send(20'000'000, [&] { delivered = true; });
  fx.net.advance(msec(100));
  EXPECT_FALSE(delivered);
  EXPECT_GT(ws.backlog(), 0u);
  fx.net.advance(msec(100));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(ws.backlog(), 0u);
}

TEST(WireStream, LargeMessageDoesNotStarveLaterOnes) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  std::vector<int> order;
  ws.send(5'000'000, [&] { order.push_back(1); });
  ws.send(64, [&] { order.push_back(2); });
  fx.net.advance(msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(WireStream, CallbackMaySendMore) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  int chain = 0;
  std::function<void()> next = [&] {
    if (++chain < 5) ws.send(100, next);
  };
  ws.send(100, next);
  for (int i = 0; i < 10; ++i) fx.net.advance(msec(100));
  EXPECT_EQ(chain, 5);
}

TEST(WireStream, NullCallbackIsFine) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  ws.send(1000, nullptr);
  fx.net.advance(msec(100));
  EXPECT_TRUE(ws.idle());
}

TEST(WireStream, QueuedMessagesCountTracksBacklog) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  for (int i = 0; i < 10; ++i) ws.send(1_MiB, nullptr);
  EXPECT_EQ(ws.queued_messages(), 10u);
  fx.net.advance(msec(100));  // ~11 of the 10 MiB fit in one quantum
  EXPECT_LT(ws.queued_messages(), 10u);
}

TEST(WireStream, BatchDeliversChunksInOrder) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  std::uint64_t items = 0;
  int calls = 0;
  ws.send_batch(100, 1000, [&](std::uint64_t k) {
    items += k;
    ++calls;
    // A chunk is no longer in flight by the time its callback runs.
    EXPECT_EQ(ws.items_in_flight(), 100u - items);
  });
  EXPECT_EQ(ws.queued_messages(), 1u);  // one queue entry for the whole batch
  EXPECT_EQ(ws.items_in_flight(), 100u);
  fx.net.advance(msec(100));
  EXPECT_EQ(items, 100u);
  EXPECT_EQ(calls, 1);  // everything fit in one quantum -> one chunk
  EXPECT_TRUE(ws.idle());
  EXPECT_EQ(ws.delivered_bytes(), 100'000u);
}

TEST(WireStream, BatchChunksMatchPerItemSends) {
  // A batch's chunk callbacks must fire at exactly the quanta where the same
  // items sent individually would have completed.
  Fixture batch_fx, single_fx;
  WireStream batch_ws(&batch_fx.net, batch_fx.a, batch_fx.b);
  WireStream single_ws(&single_fx.net, single_fx.a, single_fx.b);
  constexpr std::uint64_t kItems = 40;
  constexpr Bytes kItemBytes = 1'000'000;  // 40 MB total: several quanta

  std::vector<std::uint64_t> batch_progress, single_progress;
  std::uint64_t batch_total = 0;
  batch_ws.send_batch(kItems, kItemBytes,
                      [&](std::uint64_t k) { batch_total += k; });
  std::uint64_t single_total = 0;
  for (std::uint64_t i = 0; i < kItems; ++i) {
    single_ws.send(kItemBytes, [&] { ++single_total; });
  }
  for (int q = 0; q < 10; ++q) {
    batch_fx.net.advance(msec(100));
    single_fx.net.advance(msec(100));
    batch_progress.push_back(batch_total);
    single_progress.push_back(single_total);
  }
  EXPECT_EQ(batch_progress, single_progress);
  EXPECT_EQ(batch_total, kItems);
}

TEST(WireStream, BatchPartialItemCarriesAcrossQuanta) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  // Item size above one quantum's drain (~11.7 MB at 1 Gbps/100ms): each
  // item needs two quanta, so chunks alternate 0-advance/1-advance.
  std::uint64_t items = 0;
  ws.send_batch(3, 15'000'000, [&](std::uint64_t k) { items += k; });
  fx.net.advance(msec(100));
  EXPECT_EQ(items, 0u);
  fx.net.advance(msec(100));
  EXPECT_EQ(items, 1u);
  fx.net.advance(msec(200));
  EXPECT_EQ(items, 3u);
  EXPECT_TRUE(ws.idle());
}

TEST(WireStream, BatchCallbackMaySendMore) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  std::uint64_t followups = 0;
  ws.send_batch(5, 100, [&](std::uint64_t k) {
    // Reentrant send from inside a chunk callback must not invalidate the
    // in-flight queue entry.
    for (std::uint64_t i = 0; i < k; ++i) {
      ws.send(50, [&](/*done*/) { ++followups; });
    }
  });
  for (int i = 0; i < 5; ++i) fx.net.advance(msec(100));
  EXPECT_EQ(followups, 5u);
  EXPECT_TRUE(ws.idle());
}

TEST(WireStream, BatchNullCallbackIsFine) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  ws.send_batch(1000, 16, nullptr);
  fx.net.advance(msec(100));
  EXPECT_TRUE(ws.idle());
  EXPECT_EQ(ws.delivered_bytes(), 16'000u);
}

TEST(WireStream, MixedBatchAndSingleKeepFifoOrder) {
  Fixture fx;
  WireStream ws(&fx.net, fx.a, fx.b);
  std::vector<int> order;
  ws.send(1000, [&] { order.push_back(1); });
  ws.send_batch(10, 100, [&](std::uint64_t) { order.push_back(2); });
  ws.send(1000, [&] { order.push_back(3); });
  fx.net.advance(msec(100));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(WireStream, DestructionClosesFlow) {
  Fixture fx;
  {
    WireStream ws(&fx.net, fx.a, fx.b);
    ws.send(1_MiB, nullptr);
    EXPECT_EQ(fx.net.open_flow_count(), 1u);
  }
  EXPECT_EQ(fx.net.open_flow_count(), 0u);
  fx.net.advance(msec(100));  // must not crash on the closed flow
}

TEST(WireStream, TwoStreamsShareTheLinkFairly) {
  Fixture fx;
  net::NodeId c = fx.net.add_node("c");
  WireStream w1(&fx.net, fx.a, fx.b);
  WireStream w2(&fx.net, fx.a, c);
  w1.send(100_MiB, nullptr);
  w2.send(100_MiB, nullptr);
  fx.net.advance(sec(1));
  double r = static_cast<double>(w1.delivered_bytes()) /
             static_cast<double>(w2.delivered_bytes());
  EXPECT_NEAR(r, 1.0, 0.01);
}

}  // namespace
}  // namespace agile::migration
