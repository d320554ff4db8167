#include "phy/pathloss.hpp"

#include <algorithm>
#include <cmath>

namespace firefly::phy {

namespace {
// The dual-slope curve is continuous at the breakpoint only approximately
// (4.35 + 25·log10(6) = 23.80;  40 + 40·log10(6) = 71.13) — the paper's
// Table I has a deliberate near-field/far-field regime jump, which we keep
// verbatim.  Inversion resolves the ambiguity by preferring the far-field
// branch (losses in the gap map to the breakpoint).
constexpr double kNearIntercept = 4.35;
constexpr double kNearSlope = 25.0;
constexpr double kFarIntercept = 40.0;
constexpr double kFarSlope = 40.0;
}  // namespace

util::Db PaperDualSlope::loss(double distance_m) const {
  const double d = std::max(distance_m, kMinDistance);
  if (d < kBreakpoint) return util::Db{kNearIntercept + kNearSlope * std::log10(d)};
  return util::Db{kFarIntercept + kFarSlope * std::log10(d)};
}

double PaperDualSlope::distance_for_loss(util::Db pl) const {
  const double far_loss_at_break = kFarIntercept + kFarSlope * std::log10(kBreakpoint);
  if (pl.value >= far_loss_at_break) {
    return std::pow(10.0, (pl.value - kFarIntercept) / kFarSlope);
  }
  const double near_loss_at_break = kNearIntercept + kNearSlope * std::log10(kBreakpoint);
  if (pl.value >= near_loss_at_break) {
    // Losses inside the regime gap have no preimage; snap to the breakpoint.
    return kBreakpoint;
  }
  return std::max(kMinDistance,
                  std::pow(10.0, (pl.value - kNearIntercept) / kNearSlope));
}

std::unique_ptr<PathLossModel> make_paper_model() {
  return std::make_unique<PaperDualSlope>();
}

}  // namespace firefly::phy
