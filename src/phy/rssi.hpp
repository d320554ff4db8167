// rssi.hpp — RSSI-based ranging (the paper's eqs. 6–12).
//
// A device receiving a proximity signal at power p can invert the path-loss
// model to estimate the transmitter's distance.  Shadowing `x` (Gaussian,
// σ dB) corrupts the estimate *multiplicatively*:
//     r_est = r_true · 10^(x / (10 n))                      (eq. 11)
//     ε     = r_est / r_true − 1 = 10^(x/(10n)) − 1          (eqs. 6, 12)
// so the relative error is log-normal.  `RssiRanging` performs the
// inversion against any PathLossModel; the analytic helpers give the exact
// moments of ε, which the validation bench compares to simulation.
#pragma once

#include "phy/pathloss.hpp"
#include "util/units.hpp"

namespace firefly::phy {

class RssiRanging {
 public:
  RssiRanging(const PathLossModel* model, util::Dbm tx_power)
      : model_(model), tx_power_(tx_power) {}

  /// Distance estimate from a received power (inverts the model; any
  /// shadowing/fading in `rx` surfaces as ranging error).
  [[nodiscard]] double estimate_distance(util::Dbm rx) const {
    return model_->distance_for_loss(tx_power_ - rx);
  }

 private:
  const PathLossModel* model_;
  util::Dbm tx_power_;
};

/// Analytic error statistics for a log-distance channel with exponent n and
/// shadowing σ (dB).  Let s = σ·ln(10)/(10·n); then 10^(x/10n) is
/// log-normal(0, s²):
///   E[r_est/r]   = exp(s²/2)
///   Var[r_est/r] = (exp(s²) − 1)·exp(s²)
///   median multiplicative error = 1 (the estimator is median-unbiased).
struct RangingErrorStats {
  double mean_ratio;    ///< E[r_est / r_true]
  double stddev_ratio;  ///< SD[r_est / r_true]
  double median_ratio;  ///< always 1.0 for zero-mean shadowing
  double p90_ratio;     ///< 90th percentile of r_est / r_true
};

[[nodiscard]] RangingErrorStats analytic_ranging_error(double sigma_db,
                                                       double pathloss_exponent);

/// The multiplicative distortion 10^(x/(10n)) for a given shadowing draw x
/// (eq. 11's factor).  Exposed for tests.
[[nodiscard]] double ranging_distortion(double shadow_db, double pathloss_exponent);

}  // namespace firefly::phy
