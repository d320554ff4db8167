// pathloss.hpp — deterministic distance-dependent path loss.
//
// Models return a positive loss in dB; received power is
// rx = tx − PL(d) − X_shadow − X_fade.  The simulator's model is Table I's
// propagation model, the 3GPP D2D outdoor NLOS curve (`PaperDualSlope`):
//     PL = 4.35 + 25·log10(d)   for d < 6 m
//     PL = 40.0 + 40·log10(d)   otherwise.
//
// A model also exposes the inverse `distance_for_loss` used by RSSI ranging
// (the device inverts the measured loss to estimate range).
#pragma once

#include <memory>

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
  /// Distances below this are clamped (models diverge at d -> 0).
  [[nodiscard]] virtual double min_distance() const { return 0.1; }
};

/// Table I dual-slope outdoor NLOS model.
class PaperDualSlope final : public PathLossModel {
 public:
  static constexpr double kBreakpoint = 6.0;  // metres

  [[nodiscard]] util::Db loss(double distance_m) const override;
  [[nodiscard]] double distance_for_loss(util::Db loss) const override;
};

/// The Table I model, as the scenarios build it.
[[nodiscard]] std::unique_ptr<PathLossModel> make_paper_model();

}  // namespace firefly::phy
