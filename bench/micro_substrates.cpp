// Substrate microbenchmarks (google-benchmark): the hot paths the simulator
// leans on — bitmap scans, pagemap walks, eviction sampling, VMD point ops,
// the event queue, and the guest-memory touch fast path. These guard against
// performance regressions that would make the paper-scale experiments
// (hundreds of millions of page accesses) impractical to run.
#include <benchmark/benchmark.h>

#include <memory>

#include "mem/guest_memory.hpp"
#include "mem/pagemap.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"
#include "swap/swap_device.hpp"
#include "util/bitmap.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"
#include "vmd/vmd.hpp"
#include "vmd/vmd_swap_device.hpp"

namespace {

using namespace agile;

void BM_BitmapScanSparse(benchmark::State& state) {
  std::size_t n = static_cast<std::size_t>(state.range(0));
  Bitmap bm(n);
  Rng rng(1, "bm");
  for (std::size_t i = 0; i < n / 1000 + 1; ++i) bm.set(rng.next_below(n));
  for (auto _ : state) {
    std::size_t found = 0;
    for (std::size_t p = bm.find_next_set(0); p != Bitmap::npos;
         p = bm.find_next_set(p + 1)) {
      ++found;
    }
    benchmark::DoNotOptimize(found);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_BitmapScanSparse)->Arg(1 << 16)->Arg(1 << 22);

void BM_BitmapSetClear(benchmark::State& state) {
  Bitmap bm(1 << 22);
  Rng rng(1, "sc");
  for (auto _ : state) {
    std::size_t i = rng.next_below(1 << 22);
    bm.set(i);
    bm.clear(i);
  }
}
BENCHMARK(BM_BitmapSetClear);

void BM_RngNextBelow(benchmark::State& state) {
  Rng rng(1, "r");
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_below(2'621'440));
}
BENCHMARK(BM_RngNextBelow);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(1, "z");
  ZipfSampler zipf(2'000'000, 0.99);
  for (auto _ : state) benchmark::DoNotOptimize(zipf.sample(rng));
}
BENCHMARK(BM_ZipfSample);

struct MemFixture {
  std::shared_ptr<storage::SsdModel> ssd = std::make_shared<storage::SsdModel>();
  swap::LocalSwapDevice dev{"swap", ssd, 8_GiB};
  mem::GuestMemory memory;
  MemFixture(Bytes size, Bytes reservation)
      : memory(mem::GuestMemoryConfig{size, reservation, 8}, &dev, Rng(1, "m")) {}
};

void BM_TouchResidentFastPath(benchmark::State& state) {
  MemFixture fx(1_GiB, 1_GiB);
  fx.memory.prefill(fx.memory.page_count(), 0);
  Rng rng(2, "t");
  std::uint32_t tick = 1;
  for (auto _ : state) {
    PageIndex p = rng.next_below(fx.memory.page_count());
    benchmark::DoNotOptimize(fx.memory.touch(p, false, tick));
  }
}
BENCHMARK(BM_TouchResidentFastPath);

void BM_TouchWithEviction(benchmark::State& state) {
  MemFixture fx(1_GiB, 256_MiB);
  fx.memory.prefill(fx.memory.page_count(), 0);
  Rng rng(2, "t");
  std::uint32_t tick = 1;
  for (auto _ : state) {
    PageIndex p = rng.next_below(fx.memory.page_count());
    benchmark::DoNotOptimize(fx.memory.touch(p, false, ++tick));
    fx.ssd->advance(1000);  // keep the device queue from exploding
  }
}
BENCHMARK(BM_TouchWithEviction);

void BM_PagemapWalk(benchmark::State& state) {
  MemFixture fx(1_GiB, 256_MiB);
  fx.memory.prefill(fx.memory.page_count(), 0);
  mem::Pagemap pm(fx.memory);
  for (auto _ : state) {
    std::uint64_t swapped = 0;
    for (PageIndex p = 0; p < pm.page_count(); ++p) {
      swapped += pm.entry(p).swapped;
    }
    benchmark::DoNotOptimize(swapped);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fx.memory.page_count()));
}
BENCHMARK(BM_PagemapWalk);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    for (int i = 0; i < 1000; ++i) {
      sim.schedule_at(i, [] {});
    }
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleRun);

// The periodic-reschedule path: the cluster quantum fires 10x per simulated
// second, so re-arming must not allocate a closure per firing.
void BM_EventQueuePeriodicFire(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    std::uint64_t fires = 0;
    auto task = sim.schedule_periodic(10, [&](SimTime) { ++fires; });
    sim.run_until(10'000);
    task->cancel();
    benchmark::DoNotOptimize(fires);
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueuePeriodicFire);

// Sweep-pool dispatch overhead: submit/drain a batch of trivial tasks. The
// bench suite's tasks are whole simulations, so anything under ~10 µs per
// dispatch is invisible; this guards against pathological regressions.
void BM_ThreadPoolSubmitDrain(benchmark::State& state) {
  util::ThreadPool pool(2);
  for (auto _ : state) {
    std::vector<std::future<int>> futures;
    futures.reserve(64);
    for (int i = 0; i < 64; ++i) {
      futures.push_back(pool.submit([i] { return i; }));
    }
    int sum = 0;
    for (auto& f : futures) sum += f.get();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(state.iterations() * 64);
}
BENCHMARK(BM_ThreadPoolSubmitDrain);

void BM_NetworkAdvanceManyFlows(benchmark::State& state) {
  net::Network net;
  net::NodeId a = net.add_node("a"), b = net.add_node("b");
  std::vector<net::FlowId> flows;
  for (int i = 0; i < 8; ++i) {
    flows.push_back(net.open_flow(a, b, [](Bytes) {}));
  }
  for (auto _ : state) {
    for (net::FlowId f : flows) net.offer(f, 1_MiB);
    net.advance(msec(100));
  }
}
BENCHMARK(BM_NetworkAdvanceManyFlows);

void BM_VmdWriteReadPair(benchmark::State& state) {
  net::Network net;
  net::NodeId client_node = net.add_node("c");
  net::NodeId server_node = net.add_node("s");
  vmd::VmdServer server(server_node, {.capacity = 32_GiB, .service_time = 3});
  vmd::VmdSwapDevice dev("blk", &net, client_node, 16_GiB);
  dev.register_server(&server);
  for (auto _ : state) {
    swap::SwapSlot slot = dev.allocate_slot();
    dev.write_page(slot);
    benchmark::DoNotOptimize(dev.read_page(slot));
    dev.free_slot(slot);
  }
}
BENCHMARK(BM_VmdWriteReadPair);

void BM_SsdSubmitRead(benchmark::State& state) {
  storage::SsdModel ssd;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssd.submit_read(kPageSize));
    ssd.advance(200);
  }
}
BENCHMARK(BM_SsdSubmitRead);

}  // namespace

BENCHMARK_MAIN();
