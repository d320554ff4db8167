// prc.hpp — the Mirollo–Strogatz phase response curve (paper eqs. 4–5).
//
// An integrate-and-fire oscillator has state x = f(θ) concave-up; when a
// pulse of amplitude ε arrives the state jumps by ε, which in phase terms is
// the piecewise-linear return map
//     θ ← min(α·θ + β, 1),       α = e^{aε},   β = (e^{aε} − 1)/(e^a − 1),
// with dissipation factor a.  Mirollo & Strogatz prove that for a fully
// meshed network with α > 1 and β > 0 (i.e. a > 0, ε > 0) all oscillators
// converge to simultaneous firing.  `PrcParams::valid_for_convergence`
// encodes exactly that condition; every engine checks it at construction
// and rejects a coupling that violates it (core/engine.cpp).
#pragma once

namespace firefly::pco {

struct PrcParams {
  double dissipation_a{1.0};  ///< a > 0: concavity of f
  double epsilon{0.05};       ///< ε > 0: pulse coupling strength

  /// α = e^{aε} (eq. 5).
  [[nodiscard]] double alpha() const;
  /// β = (e^{aε} − 1)/(e^a − 1) (eq. 5).
  [[nodiscard]] double beta() const;
  /// Mirollo–Strogatz convergence condition: α > 1 and β > 0.
  [[nodiscard]] bool valid_for_convergence() const;
};

/// The return map θ ← min(α·θ + β, 1).  θ is normalised to [0, 1].
[[nodiscard]] double apply_prc(double theta, const PrcParams& params);

}  // namespace firefly::pco
