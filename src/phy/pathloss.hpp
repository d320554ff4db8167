// pathloss.hpp — deterministic distance-dependent path loss models.
//
// All models return a positive loss in dB; received power is
// rx = tx − PL(d) − X_shadow − X_fade.  Three models:
//
//   * `LogDistance` — the paper's eq. (7): received power falls as
//     10·n·log10(d/d0) past a reference distance d0, with path-loss
//     exponent n (2 indoor, 4 outdoor per the paper).
//   * `PaperDualSlope` — Table I's propagation model, the 3GPP D2D outdoor
//     NLOS curve:  PL = 4.35 + 25·log10(d)   for d < 6 m
//                  PL = 40.0 + 40·log10(d)   otherwise.
//   * `FreeSpace` — Friis free-space loss at a given carrier frequency, as
//     a sanity baseline.
//
// Each model exposes the inverse `distance_for_loss` used by RSSI ranging
// (the device inverts the measured loss to estimate range).
#pragma once

#include <memory>
#include <string>

#include "util/units.hpp"

namespace firefly::phy {

class PathLossModel {
 public:
  virtual ~PathLossModel() = default;

  /// Loss at distance d metres (d clamped to >= min_distance()).
  /// Contract: non-decreasing in d (a regime jump may only go up, as
  /// `PaperDualSlope`'s breakpoint does).  The radio's candidate rebuild
  /// tabulates the loss at bucket edges of d² as a lower bound for every
  /// pair in the bucket, which is sound only for a monotone model.
  [[nodiscard]] virtual util::Db loss(double distance_m) const = 0;
  /// Inverse: the distance that would produce this loss.
  [[nodiscard]] virtual double distance_for_loss(util::Db loss) const = 0;
  [[nodiscard]] virtual std::string name() const = 0;
  /// Distances below this are clamped (models diverge at d -> 0).
  [[nodiscard]] virtual double min_distance() const { return 0.1; }
};

/// Log-distance model (paper eq. 7).  `loss_at_reference` is the loss at
/// d0; the paper leaves it implicit, so we default to the dual-slope
/// model's value at 1 m for continuity.
class LogDistance final : public PathLossModel {
 public:
  LogDistance(double exponent, double reference_distance_m = 1.0,
              util::Db loss_at_reference = util::Db{40.0});

  [[nodiscard]] util::Db loss(double distance_m) const override;
  [[nodiscard]] double distance_for_loss(util::Db loss) const override;
  [[nodiscard]] std::string name() const override;
  [[nodiscard]] double exponent() const { return exponent_; }

 private:
  double exponent_;
  double d0_;
  util::Db pl0_;
};

/// Table I dual-slope outdoor NLOS model.
class PaperDualSlope final : public PathLossModel {
 public:
  static constexpr double kBreakpoint = 6.0;  // metres

  [[nodiscard]] util::Db loss(double distance_m) const override;
  [[nodiscard]] double distance_for_loss(util::Db loss) const override;
  [[nodiscard]] std::string name() const override { return "paper-dual-slope"; }
};

/// Friis free-space loss: 20·log10(d) + 20·log10(f) − 147.55 (f in Hz).
class FreeSpace final : public PathLossModel {
 public:
  explicit FreeSpace(double frequency_hz = 2.0e9) : frequency_hz_(frequency_hz) {}

  [[nodiscard]] util::Db loss(double distance_m) const override;
  [[nodiscard]] double distance_for_loss(util::Db loss) const override;
  [[nodiscard]] std::string name() const override { return "free-space"; }

 private:
  double frequency_hz_;
};

/// Factory helpers for the scenarios.
[[nodiscard]] std::unique_ptr<PathLossModel> make_paper_model();
[[nodiscard]] std::unique_ptr<PathLossModel> make_outdoor_log_distance();

}  // namespace firefly::phy
