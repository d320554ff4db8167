// The bounded-memory gate for service-mode soaks: a million-slot churn soak
// must reach a steady state where neither the process heap nor the scheduler
// arena grows.  The test-global operator new/delete below count net
// outstanding bytes (a 16-byte size header per allocation keeps the
// accounting exact under ASan, which intercepts the underlying malloc), the
// soak warms up for 400k slots, and the remaining 600k slots must finish
// with net heap growth of exactly zero and an unchanged arena high-water
// mark.  Everything is seeded, so the assertion is deterministic, not a
// statistical bound.  The same counters keep the peak of the outstanding
// bytes, which bounds what a one-shot trial's end-of-run metrics pass holds,
// and the outstanding bytes check the engine's memory ledger.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/scenario.hpp"
#include "core/service_mode.hpp"
#include "mac/radio.hpp"
#include "phy/channel.hpp"
#include "proto/st.hpp"
#include "sim/simulator.hpp"
#include "sim/soak.hpp"

namespace {
std::atomic<long long> g_outstanding_bytes{0};
// The highest g_outstanding_bytes has reached; a test lowers it to the
// current value before the call it measures.
std::atomic<long long> g_peak_outstanding_bytes{0};
constexpr std::size_t kHeader = 16;  // keeps malloc's 16-byte alignment
}  // namespace

void* operator new(std::size_t size) {
  void* raw = std::malloc(size + kHeader);
  if (raw == nullptr) throw std::bad_alloc();
  *static_cast<std::size_t*>(raw) = size;
  const long long now = g_outstanding_bytes.fetch_add(static_cast<long long>(size),
                                                      std::memory_order_relaxed) +
                        static_cast<long long>(size);
  long long peak = g_peak_outstanding_bytes.load(std::memory_order_relaxed);
  while (now > peak && !g_peak_outstanding_bytes.compare_exchange_weak(
                           peak, now, std::memory_order_relaxed)) {
  }
  return static_cast<char*>(raw) + kHeader;
}

void* operator new[](std::size_t size) { return ::operator new(size); }

// The nothrow forms (std::stable_sort's temporary buffer) must come through
// the counting header too: under ASan the runtime's own nothrow new would
// otherwise hand the counting delete below a header-less block.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return ::operator new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

void operator delete(void* p) noexcept {
  if (p == nullptr) return;
  void* raw = static_cast<char*>(p) - kHeader;
  g_outstanding_bytes.fetch_sub(static_cast<long long>(*static_cast<std::size_t*>(raw)),
                                std::memory_order_relaxed);
  std::free(raw);
}

void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace {

using namespace firefly;

class ServiceSt : public proto::StEngine {
 public:
  using proto::StEngine::StEngine;
  using proto::StEngine::collect_metrics;
  using proto::StEngine::run_service;
};

TEST(SoakMemory, MillionSlotChurnSoakHasZeroSteadyStateHeapGrowth) {
  core::ScenarioConfig config;
  config.n = 32;
  config.seed = 17;
  // The DeviceHot region is carved from one arena at engine construction
  // and crash/recover cold-boots rewrite it in place, so the zero-growth
  // assertion below covers the flat hot arrays too.
  // Churn plus the allocation-free channel faults.  (Deep fades are excluded
  // on purpose: the active-fade bookkeeping uses a node-based container, so
  // a fade soak's steady state is bounded but not allocation-free.)
  config.protocol.faults.churn_rate_per_min = 240.0;  // 4 crashes/sec
  config.protocol.faults.mean_downtime_ms = 1'500.0;
  config.protocol.faults.drift_max_ppm = 40.0;
  config.protocol.faults.drop_probability = 0.02;

  core::ServiceConfig warmup;
  warmup.duration_slots = 400'000;
  warmup.window_slots = 1'000;
  warmup.snapshot_every_slots = 0;  // snapshots allocate by design

  const std::vector<geo::Vec2> positions = core::deploy(config);
  ServiceSt engine(positions, config.protocol, config.radio, config.seed);

  // Both heap readings happen with no ServiceReport alive: the report's
  // RunMetrics owns sample vectors, and holding one report at the first
  // reading but two at the second would count report storage as "growth".
  std::uint64_t warm_crashes = 0;
  std::uint64_t arena_hwm_after_warmup = 0;
  std::uint64_t arena_capacity_after_warmup = 0;
  {
    const core::ServiceReport warm = engine.run_service(warmup);
    ASSERT_TRUE(warm.ok()) << warm.error;
    ASSERT_GT(warm.metrics.crashes, 0u) << "warm-up saw no churn";
    warm_crashes = warm.metrics.crashes;
    arena_hwm_after_warmup = warm.arena_high_water;
    arena_capacity_after_warmup = warm.arena_capacity;
  }
  const long long heap_after_warmup =
      g_outstanding_bytes.load(std::memory_order_relaxed);

  core::ServiceConfig full = warmup;
  full.duration_slots = 1'000'000;  // run_service extends the same run
  std::uint64_t end_arena_hwm = 0;
  std::uint64_t end_arena_capacity = 0;
  {
    const core::ServiceReport report = engine.run_service(full);
    ASSERT_TRUE(report.ok()) << report.error;
    EXPECT_EQ(report.windows, 600u);
    EXPECT_GT(report.metrics.crashes, warm_crashes) << "tail saw no churn";
    end_arena_hwm = report.arena_high_water;
    end_arena_capacity = report.arena_capacity;
  }
  const long long heap_at_end = g_outstanding_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(heap_at_end - heap_after_warmup, 0)
      << "steady-state soak grew the heap by " << (heap_at_end - heap_after_warmup)
      << " bytes over 600k slots";
  EXPECT_EQ(end_arena_hwm, arena_hwm_after_warmup)
      << "scheduler arena peak moved after warm-up";
  EXPECT_EQ(end_arena_capacity, arena_capacity_after_warmup)
      << "scheduler arena grew a new chunk after warm-up";
}

// The end-of-run metrics pass keeps one ranging error per neighbour-table
// entry.  Sized once, that sample is the pass's only large allocation; grown
// by doubling, its last growth would hold the old and the new array at once
// (and the new one up to twice too large), which is where an N = 2000
// trial's resident set peaks.
TEST(SoakMemory, MetricsPassHoldsOneExactRangingSample) {
  core::ScenarioConfig config;
  config.n = 200;
  config.seed = 5;
  const std::vector<geo::Vec2> positions = core::deploy(config);
  ServiceSt engine(positions, config.protocol, config.radio, config.seed);
  ASSERT_TRUE(engine.run().converged);
  std::size_t entries = 0;
  for (std::uint32_t i = 0; i < positions.size(); ++i) entries += engine.neighbors(i).size();
  // Large enough that a doubling growth overshoots the slack below.
  ASSERT_GT(entries * sizeof(double), std::size_t{64} << 10);

  const long long before = g_outstanding_bytes.load(std::memory_order_relaxed);
  g_peak_outstanding_bytes.store(before, std::memory_order_relaxed);
  const core::RunMetrics metrics = engine.collect_metrics();
  const long long raised = g_peak_outstanding_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(metrics.converged);
  const auto bound = static_cast<long long>(entries * sizeof(double) + (std::size_t{64} << 10));
  EXPECT_LE(raised, bound) << "the metrics pass raised the heap by " << raised
                           << " bytes over " << entries << " neighbour entries";
}

// The same pass without the sample: the ranging p90 is selected from a
// buffer of about a fifth of the entries (2·keep doubles, keep ≈ entries /
// 10), so the pass may raise the heap by 2 B per entry plus a fixed 64 KiB
// for everything else it holds.  A sample of every error (8 B per entry)
// breaks the bound.
TEST(SoakMemory, MetricsPassHoldsABoundedRangingBuffer) {
  core::ScenarioConfig config;
  config.n = 200;
  config.seed = 5;
  const std::vector<geo::Vec2> positions = core::deploy(config);
  ServiceSt engine(positions, config.protocol, config.radio, config.seed);
  ASSERT_TRUE(engine.run().converged);
  std::size_t entries = 0;
  for (std::uint32_t i = 0; i < positions.size(); ++i) entries += engine.neighbors(i).size();
  const auto bound = static_cast<long long>(2 * entries + (std::size_t{64} << 10));
  // Large enough that a sample of every error overshoots the bound.
  ASSERT_GT(static_cast<long long>(entries * sizeof(double)), bound);

  const long long before = g_outstanding_bytes.load(std::memory_order_relaxed);
  g_peak_outstanding_bytes.store(before, std::memory_order_relaxed);
  const core::RunMetrics metrics = engine.collect_metrics();
  const long long raised = g_peak_outstanding_bytes.load(std::memory_order_relaxed) - before;
  EXPECT_TRUE(metrics.converged);
  EXPECT_LE(raised, bound) << "the metrics pass raised the heap by " << raised
                           << " bytes over " << entries << " neighbour entries";
}

// The memory ledger names where an engine's heap is: after a run, its
// total is within 5 % of the bytes the engine holds, counted by the
// operator new above.
TEST(SoakMemory, LedgerTotalMatchesTheEngineHeap) {
  core::ScenarioConfig config;
  config.n = 200;
  config.seed = 5;
  const std::vector<geo::Vec2> positions = core::deploy(config);
  const long long before = g_outstanding_bytes.load(std::memory_order_relaxed);
  ServiceSt engine(positions, config.protocol, config.radio, config.seed);
  ASSERT_TRUE(engine.run().converged);
  const core::MemoryReport report = engine.memory_report();
  const long long held = g_outstanding_bytes.load(std::memory_order_relaxed) - before -
                         static_cast<long long>(report.entries.capacity() *
                                                sizeof(core::MemoryReport::Entry));
  const auto total = static_cast<long long>(report.total_bytes());
  std::string ledger;
  for (const core::MemoryReport::Entry& e : report.entries) {
    ledger += std::string(" ") + e.name + "=" + std::to_string(e.bytes);
  }
  EXPECT_LE(std::abs(total - held) * 20, held)
      << "ledger total " << total << " B against " << held << " B held;" << ledger;
}

// A storm slot's staged receptions grow in fixed chunks, never by doubling
// one array: a doubling growth copies into a new array twice the size while
// the old one is still live (6 and 12 MiB at once in an N = 2000 trial).
// The flush may raise the heap by the staged receptions (24 B each, rounded
// up to a whole 96 KiB chunk), the grouping index (4 B each), the decoded
// batch with its growth and the per-device sweep scratch, and no more.
TEST(SoakMemory, StormSlotStagesReceptionsWithoutATransientCopy) {
  core::ScenarioConfig config;
  config.n = 400;
  config.seed = 9;
  config.area_policy = core::AreaPolicy::kFixed;  // every pair in range
  const std::vector<geo::Vec2> positions = core::deploy(config);
  sim::Simulator sim;
  const std::unique_ptr<phy::Channel> channel = phy::make_paper_channel(config.seed);
  mac::RadioMedium radio(&sim, channel.get());
  for (std::uint32_t i = 0; i < positions.size(); ++i) radio.add_device(i, positions[i]);
  radio.rebuild();
  // A synchronised network's firing slot: everyone sends the same preamble.
  for (std::uint32_t i = 0; i < positions.size(); ++i) {
    radio.broadcast(i, {mac::RachCodec::kRach1, 0}, mac::PsType::kSyncPulse, i);
  }

  const long long before = g_outstanding_bytes.load(std::memory_order_relaxed);
  g_peak_outstanding_bytes.store(before, std::memory_order_relaxed);
  sim.run();
  const long long raised = g_peak_outstanding_bytes.load(std::memory_order_relaxed) - before;

  const mac::TrafficCounters& traffic = radio.counters();
  const std::size_t staged = traffic.deliveries + traffic.collisions;  // each resolves once
  // Large enough that a doubling growth overshoots the bound below.
  ASSERT_GT(staged, std::size_t{100'000});
  constexpr std::size_t kChunkBytes = std::size_t{4096} * 24;
  const std::size_t chunks = (staged * 24 + kChunkBytes - 1) / kChunkBytes * kChunkBytes;
  const std::size_t order = staged * sizeof(std::uint32_t);
  const std::size_t batch =
      2 * std::bit_ceil(static_cast<std::size_t>(traffic.deliveries)) * sizeof(mac::RxEntry);
  // Tx keys, the touched list and the sweep's seven per-candidate arrays,
  // each with its growth.
  const std::size_t scratch = positions.size() * 256;
  const auto bound = static_cast<long long>(chunks + order + batch + scratch);
  EXPECT_LE(raised, bound) << "the storm slot raised the heap by " << raised << " bytes over "
                           << staged << " staged receptions";
}

TEST(SoakMemory, RecorderRingStaysAllocationFreeWhenSaturated) {
  sim::SoakRecorder recorder(8);  // deliberately tiny: forces drops
  sim::SoakWindow w;
  const long long before = g_outstanding_bytes.load(std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    w.index = i;
    recorder.push(w);
  }
  const long long after = g_outstanding_bytes.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0) << "saturated recorder allocated";
  EXPECT_EQ(recorder.dropped(), 10'000u - 8u);
}

}  // namespace
