// fault_injector.hpp — the live fault process of one run: answers the
// delivery-time fault queries and owns the churn and fade streams.
//
// `FaultInjector` holds everything a FaultPlan sets in motion, drawn from
// named substreams of the master seed so a run's whole fault sequence is a
// pure function of (plan, device count, seed): the per-device drift
// ("fault.drift"), the i.i.d. drop stream ("fault.drop"), and the churn and
// deep-fade streams of schedule_stream.hpp ("fault.churn", "fault.fade").
// Both run modes pull the streams through `generate_until`: a one-shot
// trial once, to its horizon; a service soak one telemetry window at a
// time.  The streams are chunk-invariant, so the two modes see the same
// events.  The engine owns the simulator, so it — not the injector —
// schedules them, and it keeps the *active-fade* set current through the
// `fade_started`/`fade_ended` callbacks at episode boundaries.
//
// The injector answers the radio's batched channel-fault queries
// (`mac::ChannelFaults`): drop draws in radio delivery order, which the
// single-threaded event loop makes deterministic, and the attenuation of
// currently faded links.  It is copyable, so an engine snapshot carries the
// streams' positions with the rest of the fault state.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "fault/fault_plan.hpp"
#include "fault/schedule_stream.hpp"
#include "mac/radio.hpp"
#include "util/rng.hpp"

namespace firefly::fault {

class FaultInjector final : public mac::ChannelFaults {
 public:
  /// Draws the drift of `device_count` devices and seeds the drop, churn
  /// and fade streams.
  FaultInjector(const FaultPlan& plan, std::uint32_t device_count, std::uint64_t master_seed);

  /// Append the churn transitions and fade episodes generated in [the
  /// previous call's `to_slot`, to_slot) — see ChurnStream and FadeStream.
  /// A stream whose rate is 0 emits nothing.
  void generate_until(std::int64_t to_slot, std::vector<ChurnEvent>& churn_out,
                      std::vector<FadeEpisode>& fade_out);

  /// This device's oscillator skew in ppm (0 when drift is disabled).
  [[nodiscard]] double drift_ppm(std::uint32_t device) const;

  // --- active-fade bookkeeping (engine calls at episode boundaries) ---
  void fade_started(const FadeEpisode& episode);
  void fade_ended(const FadeEpisode& episode);
  /// Extra attenuation currently on link (a, b), in dB (0 when clear).
  [[nodiscard]] double link_attenuation_db(std::uint32_t a, std::uint32_t b) const;

  // --- mac::ChannelFaults: the radio's per-transmission queries.  Engine
  // device ids are their registration indices, so receivers index links
  // directly. ---
  /// `n` i.i.d. drop draws (delivery order = draw order).  False when the
  /// plan has no drop knob, without consuming randomness.
  bool fill_drops(std::uint8_t* dropped, std::size_t n) override;
  /// `link_attenuation_db(sender, rx_index[i])` for each receiver; false
  /// without looking when no active fade touches the sender.
  bool fill_attenuation(std::uint32_t sender, mac::PsType type,
                        const std::uint32_t* rx_index, std::size_t n,
                        double* attenuation_db) override;

 private:
  [[nodiscard]] static std::uint64_t link_key(std::uint32_t a, std::uint32_t b);

  double drop_probability_;
  double fade_depth_db_;
  std::vector<double> drift_ppm_;
  // A link can be covered by overlapping episodes; count them so an episode
  // ending early does not clear a fade another episode still holds.
  std::unordered_multiset<std::uint64_t> active_fades_;
  std::vector<std::uint32_t> fades_at_;  // active fades per device (either end)
  util::Rng drop_rng_;
  ChurnStream churn_;
  FadeStream fades_;
};

}  // namespace firefly::fault
