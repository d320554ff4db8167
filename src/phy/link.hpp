// link.hpp — link-quality estimates for established D2D pairs.
//
// Once discovery and slot synchronisation are done, the question becomes
// what the direct links are worth: the ergodic (fading-averaged) Shannon
// throughput under the Rayleigh fast fading the Table I channel uses.
// Deterministic quadrature — no RNG — so the examples can quote stable
// numbers.
#pragma once

#include "util/units.hpp"

namespace firefly::phy {

/// Linear SNR from received power and noise floor.
[[nodiscard]] double snr_linear(util::Dbm received, util::Dbm noise);

/// Ergodic Shannon rate under Rayleigh fading:
/// E_g[BW·log2(1 + SNR·g)], g ~ Exp(1), evaluated by fixed quadrature over
/// the exponential quantiles (deterministic, <0.5% error).
[[nodiscard]] double rayleigh_ergodic_rate_mbps(util::Dbm mean_received, util::Dbm noise,
                                                double bandwidth_hz);

/// LTE-A D2D sidelink default: 10 MHz channel.
inline constexpr double kSidelinkBandwidthHz = 10e6;

}  // namespace firefly::phy
