// bench_micro — engine-cost microbenchmarks: the slot calendar, union-find,
// reference MSTs, PRC evaluation, the fading-uniform
// block fill, a radio slot flush, the candidate-cache rebuild and one
// end-to-end trial per registered protocol backend (the registry sweep is
// assembled at startup, so a newly registered protocol shows up here
// without editing this file).  These pin the constants behind the
// protocol-level numbers and catch performance regressions in the
// substrates.
//
// Machine-readable output: this bench is pure google-benchmark, so it keeps
// the native reporter (`--benchmark_format=json --benchmark_out=...`) rather
// than the firefly-bench-v1 JSONL the figure benches emit — wall-clock
// timings are inherently non-deterministic, so byte-identical reruns are
// not a goal here.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/scenario.hpp"
#include "fault/fault_injector.hpp"
#include "graph/boruvka.hpp"
#include "graph/mst.hpp"
#include "graph/union_find.hpp"
#include "mac/radio.hpp"
#include "pco/prc.hpp"
#include "phy/channel.hpp"
#include "proto/registry.hpp"
#include "sim/simulator.hpp"
#include "sim/slot_calendar.hpp"
#include "util/rng.hpp"

namespace {

using namespace firefly;

void BM_SlotCalendarScheduleAndPop(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(1);
  std::vector<std::int64_t> times(n);
  for (auto& t : times) t = static_cast<std::int64_t>(rng.uniform_index(1000));
  for (auto _ : state) {
    sim::SlotCalendar q;
    for (const auto t : times) q.schedule(t, [] {});
    while (!q.empty()) benchmark::DoNotOptimize(q.pop());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * n));
}
BENCHMARK(BM_SlotCalendarScheduleAndPop)->Arg(1024)->Arg(16384);

// The engine's dominant scheduling pattern: N pending fire events, each pop
// reschedules one period (100 slots) ahead, with periodic cancel+reschedule
// standing in for pulse-coupling absorption.
void BM_SlotCalendarPeriodReschedule(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  constexpr std::int64_t kPeriodSlots = 100;
  for (auto _ : state) {
    sim::SlotCalendar q;
    std::vector<sim::EventId> ids(n);
    for (std::size_t i = 0; i < n; ++i) {
      ids[i] = q.schedule(static_cast<std::int64_t>(i % 100), [] {});
    }
    std::size_t victim = 0;
    for (int step = 0; step < 20000; ++step) {
      auto fired = q.pop();
      q.schedule(fired.time + kPeriodSlots, [] {});
      if ((step & 3) == 0) {
        // Absorption: cancel a tracked event and re-arm it one period out.
        if (q.cancel(ids[victim])) {
          ids[victim] = q.schedule(fired.time + kPeriodSlots, [] {});
        }
        victim = (victim + 1) % n;
      }
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 20000);
}
BENCHMARK(BM_SlotCalendarPeriodReschedule)->Arg(256)->Arg(2048);

void BM_SimulatorPeriodicTimers(benchmark::State& state) {
  const auto timers = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Simulator sim;
    std::uint64_t fires = 0;
    for (std::size_t i = 0; i < timers; ++i) {
      sim.schedule_periodic(static_cast<std::int64_t>(i % 7), 5, [&fires] { ++fires; });
    }
    sim.run_until(200);
    benchmark::DoNotOptimize(fires);
  }
}
BENCHMARK(BM_SimulatorPeriodicTimers)->Arg(64)->Arg(512);

void BM_UnionFind(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  util::Rng rng(2);
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(4 * n);
  for (auto& p : pairs) {
    p = {static_cast<std::uint32_t>(rng.uniform_index(n)),
         static_cast<std::uint32_t>(rng.uniform_index(n))};
  }
  for (auto _ : state) {
    graph::UnionFind uf(n);
    for (const auto& [a, b] : pairs) {
      if (a != b) benchmark::DoNotOptimize(uf.unite(a, b));
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * pairs.size()));
}
BENCHMARK(BM_UnionFind)->Arg(1024)->Arg(65536);

graph::Graph random_graph(std::size_t n, std::size_t extra_per_node) {
  util::Rng rng(3);
  graph::Graph g(n);
  for (std::uint32_t v = 1; v < n; ++v) g.add_edge(v - 1, v, rng.uniform());
  for (std::size_t i = 0; i < n * extra_per_node; ++i) {
    const auto u = static_cast<std::uint32_t>(rng.uniform_index(n));
    const auto v = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (u != v) g.add_edge(u, v, rng.uniform());
  }
  return g;
}

void BM_Kruskal(benchmark::State& state) {
  const graph::Graph g = random_graph(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) benchmark::DoNotOptimize(graph::kruskal(g));
}
BENCHMARK(BM_Kruskal)->Arg(256)->Arg(4096);

void BM_Prim(benchmark::State& state) {
  const graph::Graph g = random_graph(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) benchmark::DoNotOptimize(graph::prim(g));
}
BENCHMARK(BM_Prim)->Arg(256)->Arg(4096);

void BM_Boruvka(benchmark::State& state) {
  const graph::Graph g = random_graph(static_cast<std::size_t>(state.range(0)), 4);
  for (auto _ : state) benchmark::DoNotOptimize(graph::boruvka(g));
}
BENCHMARK(BM_Boruvka)->Arg(256)->Arg(4096);

void BM_PrcEvaluation(benchmark::State& state) {
  const pco::PrcParams prc{3.0, 0.05};
  double theta = 0.1;
  for (auto _ : state) {
    theta = pco::apply_prc(theta, prc);
    if (theta >= 1.0) theta = 0.013;
    benchmark::DoNotOptimize(theta);
  }
}
BENCHMARK(BM_PrcEvaluation);

void BM_RngFillUnitOpen(benchmark::State& state) {
  // The radio sweep's per-sender fading block: one uniform per candidate.
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> out(n);
  util::Rng rng(1);
  for (auto _ : state) {
    rng.fill_unit_open(out.data(), n);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngFillUnitOpen)->Arg(64)->Arg(1024);

void BM_RadioSlotFlush(benchmark::State& state) {
  // One slot with `txs` simultaneous broadcasts into a 200-device network:
  // the protocol hot path.
  const auto txs = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(4);
  mac::RadioMedium radio(&sim, channel.get());
  util::Rng rng(5);
  const std::size_t n = 200;
  for (std::uint32_t id = 0; id < n; ++id) {
    radio.add_device(id, {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
  }
  radio.rebuild();
  std::uint64_t slot = 1;
  for (auto _ : state) {
    for (std::size_t i = 0; i < txs; ++i) {
      radio.broadcast(static_cast<std::uint32_t>(i % n),
                      {mac::RachCodec::kRach1,
                       static_cast<std::uint32_t>(rng.uniform_index(64))},
                      mac::PsType::kSyncPulse, 0);
    }
    sim.run_until(static_cast<std::int64_t>(slot));
    ++slot;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * txs));
}
BENCHMARK(BM_RadioSlotFlush)->Arg(1)->Arg(16)->Arg(128);

void BM_RadioSlotFlushFaulted(benchmark::State& state) {
  // BM_RadioSlotFlush with every delivery gate live: one crashed receiver,
  // i.i.d. drops (2 %), one active deep fade, and 10 % of the broadcasts on
  // RACH2 (H_Connect traffic, a separate collision resource).
  const auto txs = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(4);
  mac::RadioMedium radio(&sim, channel.get());
  util::Rng rng(5);
  const std::uint32_t n = 200;
  for (std::uint32_t id = 0; id < n; ++id) {
    radio.add_device(id, {rng.uniform(0.0, 200.0), rng.uniform(0.0, 200.0)});
  }
  radio.rebuild();
  fault::FaultPlan plan;
  plan.drop_probability = 0.02;
  fault::FaultInjector injector(plan, n, 8);
  injector.fade_started(fault::FadeEpisode{0, 1, 0, 1});
  radio.set_channel_faults(&injector);
  radio.set_down(n - 1, true);
  std::uint64_t slot = 1;
  for (auto _ : state) {
    for (std::size_t i = 0; i < txs; ++i) {
      const mac::RachCodec codec = i % 10 == 9 ? mac::RachCodec::kRach2 : mac::RachCodec::kRach1;
      radio.broadcast(static_cast<std::uint32_t>(i % n),
                      {codec, static_cast<std::uint32_t>(rng.uniform_index(64))},
                      codec == mac::RachCodec::kRach2 ? mac::PsType::kConnectRequest
                                                      : mac::PsType::kSyncPulse,
                      0);
    }
    sim.run_until(static_cast<std::int64_t>(slot));
    ++slot;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * txs));
}
BENCHMARK(BM_RadioSlotFlushFaulted)->Arg(16)->Arg(128);

void BM_RadioSlotFlushContended(benchmark::State& state) {
  // The FST regime: a full mesh (every device hears every other), all
  // traffic on RACH1 over 4 preambles, so nearly every audible reception is
  // contended and collision resolution dominates the flush.
  const auto txs = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(8);
  mac::RadioMedium radio(&sim, channel.get());
  util::Rng rng(9);
  const std::size_t n = 200;
  for (std::uint32_t id = 0; id < n; ++id) {
    radio.add_device(id, {rng.uniform(0.0, 30.0), rng.uniform(0.0, 30.0)});
  }
  radio.rebuild();
  std::uint64_t slot = 1;
  for (auto _ : state) {
    for (std::size_t i = 0; i < txs; ++i) {
      radio.broadcast(static_cast<std::uint32_t>((i * 37) % n),
                      {mac::RachCodec::kRach1, static_cast<std::uint32_t>(rng.uniform_index(4))},
                      mac::PsType::kSyncPulse, 0);
    }
    sim.run_until(static_cast<std::int64_t>(slot));
    ++slot;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * txs));
}
BENCHMARK(BM_RadioSlotFlushContended)->Arg(16)->Arg(128);

void BM_RadioBatchedDeliverySweep(benchmark::State& state) {
  // The batched SoA delivery path at scale: a 1000-device network, `txs`
  // broadcasts per slot, no faults/duty/downs so the one-fill-per-sender
  // sweep is active.  Compare against BM_RadioSlotFlush for the small-N
  // constant.
  const auto txs = static_cast<std::size_t>(state.range(0));
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(6);
  mac::RadioMedium radio(&sim, channel.get());
  util::Rng rng(7);
  const std::size_t n = 1000;
  for (std::uint32_t id = 0; id < n; ++id) {
    radio.add_device(id, {rng.uniform(0.0, 450.0), rng.uniform(0.0, 450.0)});
  }
  radio.rebuild();
  std::uint64_t slot = 1;
  for (auto _ : state) {
    for (std::size_t i = 0; i < txs; ++i) {
      radio.broadcast(static_cast<std::uint32_t>((i * 37) % n),
                      {mac::RachCodec::kRach1,
                       static_cast<std::uint32_t>(rng.uniform_index(64))},
                      mac::PsType::kSyncPulse, 0);
    }
    sim.run_until(static_cast<std::int64_t>(slot));
    ++slot;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * txs));
}
BENCHMARK(BM_RadioBatchedDeliverySweep)->Arg(32)->Arg(256);

void BM_RadioRebuild(benchmark::State& state) {
  // The candidate-cache rebuild an engine pays at construction and after
  // every mobility step: the paper channel over a density-scaled
  // deployment, where the range disc covers the world and the reject bound
  // decides most pairs before any libm call.
  core::ScenarioConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  config.seed = 3;
  const std::vector<geo::Vec2> positions = core::deploy(config);
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(config.seed);
  mac::RadioMedium radio(&sim, channel.get());
  for (std::uint32_t id = 0; id < positions.size(); ++id) radio.add_device(id, positions[id]);
  for (auto _ : state) {
    radio.rebuild();
    benchmark::DoNotOptimize(radio.candidates().rx.data());
    benchmark::ClobberMemory();
  }
  const auto pairs = positions.size() * (positions.size() - 1) / 2;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * pairs));
}
BENCHMARK(BM_RadioRebuild)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

void BM_RadioRebuildAfterMove(benchmark::State& state) {
  // The mobility cadence: every device takes one step (a few metres, as a
  // random-waypoint update does), the shadowing decorrelates, and the cache
  // is rebuilt once.  Devices alternate between two position sets, so each
  // iteration moves all of them and reuses the cache's allocation.
  core::ScenarioConfig config;
  config.n = static_cast<std::size_t>(state.range(0));
  config.seed = 3;
  const std::vector<geo::Vec2> home = core::deploy(config);
  std::vector<geo::Vec2> away = home;
  util::Rng rng(4);
  for (geo::Vec2& p : away) p = p + geo::Vec2{rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)};
  sim::Simulator sim;
  auto channel = phy::make_paper_channel(config.seed);
  mac::RadioMedium radio(&sim, channel.get());
  for (std::uint32_t id = 0; id < home.size(); ++id) radio.add_device(id, home[id]);
  radio.rebuild();
  bool at_home = true;
  for (auto _ : state) {
    at_home = !at_home;
    const std::vector<geo::Vec2>& to = at_home ? home : away;
    for (std::uint32_t id = 0; id < to.size(); ++id) radio.move_device(id, to[id]);
    channel->shadowing().invalidate();
    radio.rebuild();
    benchmark::DoNotOptimize(radio.candidates().rx.data());
    benchmark::ClobberMemory();
  }
  const auto pairs = home.size() * (home.size() - 1) / 2;
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations() * pairs));
}
BENCHMARK(BM_RadioRebuildAfterMove)->Arg(500)->Arg(2000)->Unit(benchmark::kMillisecond);

// One full small-network trial through the registry — the cost of a
// protocol end to end (build, run to its own completion criterion or the
// horizon), per registered backend.  Registered dynamically in main() from
// proto::Registry::names().
void BM_ProtocolTrial(benchmark::State& state, const std::string& name) {
  for (auto _ : state) {
    core::ScenarioConfig config;
    config.n = 30;
    config.seed = 11;
    config.area_policy = core::AreaPolicy::kFixed;
    config.protocol.max_periods = 200;
    std::unique_ptr<core::EngineBase> engine = proto::Registry::instance().make(
        name, core::deploy(config), config.protocol, config.radio, config.seed);
    benchmark::DoNotOptimize(engine->run());
  }
}

}  // namespace

int main(int argc, char** argv) {
  for (const std::string& name : proto::Registry::instance().names()) {
    const std::string label = "BM_ProtocolTrial/" + name;
    benchmark::RegisterBenchmark(label.c_str(), BM_ProtocolTrial, name);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
