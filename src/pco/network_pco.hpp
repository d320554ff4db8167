// network_pco.hpp — standalone continuous-time PCO network simulation.
//
// An idealised (no radio, no slots, optional per-link delay) population of
// Mirollo–Strogatz oscillators coupled along the edges of an arbitrary
// graph.  This is the analytic workhorse: it verifies the M&S convergence
// theorem on full meshes, quantifies how coupling topology (mesh vs tree vs
// k-NN) changes convergence time and pulse count, and backs the ablation
// bench.  The radio-level protocols in src/core are the "real" versions.
//
// Simulation loop (classic): find the earliest next firing, advance all
// phases to that instant, process the firing plus the same-instant
// absorption cascade, repeat.  Pulse count = number of firings (each firing
// is one broadcast).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "pco/prc.hpp"
#include "util/rng.hpp"

namespace firefly::pco {

struct PcoNetworkConfig {
  double period_s{0.1};
  PrcParams prc{};
  double refractory_s{0.0};
  /// Pulse propagation delay (seconds).  Zero gives the classic
  /// instantaneous Mirollo–Strogatz model; a nonzero delay reproduces the
  /// radio reality that breaks naive pulse coupling (each hop of absorption
  /// lags by the delay) — the effect the protocols' reachback compensation
  /// exists to cancel.
  double delay_s{0.0};
  /// Stop when the circular spread of the phases is at most this (by
  /// default one part in a thousand of the cycle).
  double spread_tolerance{1e-3};
  /// Give up after this much simulated time.
  double max_time_s{1000.0};
};

struct PcoRunResult {
  bool converged{false};
  double convergence_time_s{0.0};
  std::uint64_t total_firings{0};  ///< == pulses broadcast
  std::size_t cycles{0};           ///< convergence time in periods (rounded up)
  double final_spread{1.0};
};

class PcoNetwork {
 public:
  /// Coupling graph over n oscillators; initial phases i.i.d. uniform.
  PcoNetwork(const graph::Graph& coupling, PcoNetworkConfig config, util::Rng& rng);

  /// Run to convergence or config.max_time_s.
  [[nodiscard]] PcoRunResult run();

 private:
  void fire_cascade(std::uint32_t origin, std::vector<std::uint32_t>& fired_now);
  void fire_with_delay(std::uint32_t origin);
  [[nodiscard]] PcoRunResult run_instantaneous();
  [[nodiscard]] PcoRunResult run_delayed();

  const graph::Graph& coupling_;
  PcoNetworkConfig config_;
  std::vector<double> phases_;           // [0, 1)
  std::vector<double> refractory_until_; // absolute seconds
  double now_s_ = 0.0;
  std::uint64_t firings_ = 0;
  // Pending pulse arrivals for the delayed model: (arrival time, target).
  struct Arrival {
    double time_s;
    std::uint32_t target;
    bool operator>(const Arrival& other) const { return time_s > other.time_s; }
  };
  std::vector<Arrival> arrivals_;  // min-heap via std::push_heap/greater
};

}  // namespace firefly::pco
