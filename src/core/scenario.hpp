// scenario.hpp — canonical experiment scenarios.
//
// `ScenarioConfig` bundles everything one trial needs: device count, the
// deployment area policy, Table I radio constants and the protocol knobs.
// The paper's reference configuration is 50 devices in 100 m × 100 m; its
// figures sweep the device count "at different scales", which we read as
// density-preserving (the area grows with N so the network stays multi-hop
// at the same local density — the regime in which the two algorithms
// separate).  A fixed-area mode is provided for the dense-hotspot ablation.
#pragma once

#include <cstdint>
#include <vector>

#include "core/metrics.hpp"
#include "core/params.hpp"
#include "core/trace.hpp"
#include "geo/deployment.hpp"
#include "geo/point.hpp"
#include "graph/graph.hpp"
#include "obs/progress.hpp"
#include "obs/telemetry.hpp"
#include "phy/channel.hpp"

namespace firefly::core {

enum class AreaPolicy {
  kDensityScaled,  ///< area grows with N (paper's 50-per-hectare density)
  kFixed,          ///< always the Table I 100 m × 100 m square
};

enum class Protocol {
  kFst,       ///< full-mesh firefly baseline (Chao et al.)
  kSt,        ///< proposed spanning-tree algorithm (this paper)
  kBirthday,  ///< sync-free random-beacon discovery (refs [4]-[7])
  kDesync,    ///< dithered desynchronisation (arXiv:1210.2122)
};

[[nodiscard]] const char* to_string(Protocol p);

struct ScenarioConfig {
  std::size_t n{50};
  std::uint64_t seed{1};
  AreaPolicy area_policy{AreaPolicy::kDensityScaled};
  phy::RadioParams radio{};
  ProtocolParams protocol{};

  [[nodiscard]] geo::Area area() const;
};

/// Deterministic deployment for the scenario (uniform i.i.d., seeded).
[[nodiscard]] std::vector<geo::Vec2> deploy(const ScenarioConfig& config);

/// Ground-truth proximity graph: an edge (u, v) exists when the
/// slot-averaged received power (path loss + per-link shadowing, as the
/// given channel realises it) clears the detection threshold in at least
/// one direction; the edge weight is that power in dBm (the paper's
/// PS-strength weight).  An exhaustive scan of the pairs u < v in index
/// order: its callers' worlds are narrower than the detection range, where
/// a spatial grid would prune nothing.  Used to validate protocol trees
/// against reference MSTs and to drive the standalone PCO ablations.
[[nodiscard]] graph::Graph proximity_graph(const std::vector<geo::Vec2>& positions,
                                           const phy::Channel& channel);

/// The single home for every optional trial observer.  All are non-owning
/// and may be null; attaching them changes nothing about the simulated
/// behaviour (verified by the telemetry-off invariance tests).  `progress`
/// is advanced once per completed trial.  `memory` receives the engine's
/// memory ledger at the end of each trial; `run_trial` callers only (a
/// sweep shares its hooks across worker threads).
struct RunHooks {
  TraceSink* trace = nullptr;
  obs::Telemetry* telemetry = nullptr;
  obs::ProgressReporter* progress = nullptr;
  MemoryReport* memory = nullptr;
};

/// Run one trial of the chosen protocol on the scenario, with any
/// observers in `hooks` attached for its duration.  The engine is built
/// through `proto::Registry`, so every registered backend is runnable here.
[[nodiscard]] RunMetrics run_trial(Protocol protocol, const ScenarioConfig& config,
                                   const RunHooks& hooks = {});

}  // namespace firefly::core
