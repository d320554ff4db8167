// channel.hpp — the composed radio channel.
//
// Combines transmit power with deterministic path loss, static per-link
// shadowing and per-reception fast fading into a received power
//     rx = tx − PL(d) − X_shadow(link) − X_fade,            (paper eqs. 7–10)
// and answers the two questions the protocols ask:
//   * what power does device b receive from device a right now, and
//   * is that above the detection threshold (Table I: −95 dBm)?
// The channel owns the stochastic models; protocol code never touches RNGs
// for propagation, which keeps PHY randomness in one auditable stream.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "geo/point.hpp"
#include "phy/fading.hpp"
#include "phy/pathloss.hpp"
#include "phy/shadowing.hpp"
#include "util/rng.hpp"
#include "util/units.hpp"

namespace firefly::phy {

/// Table I radio constants.
struct RadioParams {
  util::Dbm tx_power{23.0};             ///< device power, 23 dBm
  util::Dbm detection_threshold{-95.0}; ///< PS detection threshold
  double shadowing_sigma_db{10.0};      ///< shadowing std-dev
  /// Same-preamble capture: decoded anyway when the wanted signal exceeds
  /// the summed interference-plus-noise by this margin (typical LTE PRACH
  /// detector ~3 dB).
  double capture_margin_db{3.0};
  /// Receiver noise floor: kTB + noise figure for a 1.4 MHz LTE carrier
  /// (−174 + 61.5 + 9 ≈ −104 dBm).  The −95 dBm detection threshold sits
  /// 9 dB above it; noise mainly matters inside the capture rule, where it
  /// adds to same-preamble interference.
  util::Dbm noise_floor{-104.0};
  /// Links whose slot-averaged power clears the threshold by this margin
  /// are "reliable": they define the discovery obligation and the per-link
  /// sync criterion (weaker links fade below threshold too often to owe
  /// either).
  double reliable_link_margin_db{6.0};
  /// Fading headroom for candidate-cache pruning: receivers whose
  /// slot-averaged power is within this margin of the detection threshold
  /// stay delivery candidates (see RadioMedium::rebuild).  Rayleigh fading
  /// adds at most ~15 dB of constructive gain with probability ~2e-14, so
  /// this margin makes the pruned delivery loop exact in practice.
  static constexpr double kCandidateFadingMarginDb = 15.0;
};

class Channel {
 public:
  /// Throws `std::invalid_argument` when any model is null.
  Channel(RadioParams params, std::unique_ptr<PathLossModel> pathloss,
          std::unique_ptr<ShadowingModel> shadowing, std::unique_ptr<FadingModel> fading,
          util::Rng fading_rng);

  /// Received power without fast fading (slot-averaged), used by neighbour
  /// weight estimation where the protocol averages several PSs.
  [[nodiscard]] util::Dbm mean_received_power(std::uint32_t tx_id, geo::Vec2 tx_pos,
                                              std::uint32_t rx_id, geo::Vec2 rx_pos) const;
  /// Batched `mean_received_power` for one transmitter: out_dbm[k] is its
  /// value for receiver rx_ids[k] at rx_pos[k], bit for bit, with one
  /// batched shadowing call for the whole row.
  void mean_received_powers(std::uint32_t tx_id, geo::Vec2 tx_pos, const std::uint32_t* rx_ids,
                            const geo::Vec2* rx_pos, std::size_t n, double* out_dbm) const;

  /// The uniforms behind n fast fades, one generator step each from the
  /// shared per-delivery stream: the radio compares each against a
  /// candidate's precomputed `FadingModel::skip_u` bound before paying the
  /// gain transform.
  void fill_fading_uniforms(double* out, std::size_t n) {
    fading_rng_.fill_unit_open(out, n);
  }
  /// The same n steps with the skip test applied in the draw loop: keeps
  /// the uniforms below their bound, compacted (see
  /// `util::Rng::fill_unit_open_below`).  Returns the survivor count.
  std::size_t fill_fading_survivors(const float* skip_u, const std::uint32_t* pos,
                                    std::size_t n, double* kept, std::uint32_t* kept_pos) {
    return fading_rng_.fill_unit_open_below(skip_u, pos, n, kept, kept_pos);
  }
  /// The same, with a drop process's n Bernoulli(drop_p) draws from `drops`
  /// stepped in the same loop: a fired drop loses its candidate, and
  /// `fired` counts them.
  std::size_t fill_fading_survivors(const float* skip_u, const std::uint32_t* pos,
                                    std::size_t n, double* kept, std::uint32_t* kept_pos,
                                    util::Rng& drops, double drop_p, std::size_t& fired) {
    return fading_rng_.fill_unit_open_below(skip_u, pos, n, kept, kept_pos, drops, drop_p, fired);
  }

  [[nodiscard]] bool detectable(util::Dbm rx) const {
    return rx >= params_.detection_threshold;
  }

  /// Deterministic maximum range: distance at which the *median* channel
  /// (no shadowing/fading) hits the threshold.  Useful for bounding
  /// neighbour candidate sets.
  [[nodiscard]] double median_range() const;

  /// Hard upper bound on the distance at which a slot-averaged reception
  /// can clear the detection threshold, given the path-loss budget, the
  /// shadowing model's bounded gain and `extra_margin_db` of headroom
  /// (e.g. the candidate fading margin).  +inf when the shadowing model is
  /// unbounded — spatial pruning then degrades to a dense scan.
  [[nodiscard]] double max_detectable_range(double extra_margin_db = 0.0) const;

  [[nodiscard]] const RadioParams& params() const { return params_; }
  [[nodiscard]] const PathLossModel& pathloss() const { return *pathloss_; }
  [[nodiscard]] ShadowingModel& shadowing() { return *shadowing_; }
  [[nodiscard]] const FadingModel& fading() const { return *fading_; }
  /// The fast-fading stream — the channel's only mutable state in a static
  /// scenario (shadowing draws are pure functions of the link).  Exposed so
  /// the engine's snapshot/restore checkpoint can save and rewind it.
  [[nodiscard]] util::Rng& fading_rng() { return fading_rng_; }

 private:
  RadioParams params_;
  std::unique_ptr<PathLossModel> pathloss_;
  std::unique_ptr<ShadowingModel> shadowing_;
  std::unique_ptr<FadingModel> fading_;
  util::Rng fading_rng_;
};

/// Canonical Table I channel: dual-slope path loss, per-link 10 dB
/// shadowing, Rayleigh fast fading; seeded from `master_seed`.
[[nodiscard]] std::unique_ptr<Channel> make_paper_channel(std::uint64_t master_seed,
                                                          RadioParams params = {});

}  // namespace firefly::phy
