// fault_injector.hpp — expands a FaultPlan into a concrete, replayable
// fault schedule and answers the delivery-time fault queries.
//
// `expand_schedule` is the one-shot trial's schedule: every churn
// transition and fade episode over a fixed horizon, drawn from named
// substreams of the master seed ("fault.churn", "fault.fade"), so the whole
// fault sequence of a run is a pure function of (plan, device count,
// horizon, seed) and can be inspected, logged or asserted on.  A service
// run pulls the same kinds of events from the regenerating streams in
// schedule_stream.hpp instead.  Either way the engine owns the simulator,
// so it — not the injector — schedules the events.
//
// `FaultInjector` holds what stays live during a run of either mode: the
// per-device drift ("fault.drift"), the *active-fade* set (kept current by
// the `fade_started`/`fade_ended` callbacks the engine invokes at episode
// boundaries) and the i.i.d. drop stream ("fault.drop").  It answers the
// radio's batched channel-fault queries (`mac::ChannelFaults`): drop draws
// in radio delivery order, which the single-threaded event loop makes
// deterministic, and the attenuation of currently faded links.
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "fault/fault_plan.hpp"
#include "mac/radio.hpp"
#include "util/rng.hpp"

namespace firefly::fault {

/// A one-shot trial's fault events over [0, horizon).
struct FaultSchedule {
  /// Churn transitions sorted by slot; crash/recover pairs interleaved.
  /// A device is never crashed while already down.
  std::vector<ChurnEvent> churn;
  /// Fade episodes sorted by start slot.
  std::vector<FadeEpisode> fades;
};

/// Expands `plan` for `device_count` devices over `horizon_slots` slots of
/// simulated time (1 slot = 1 ms).  Pure function of its arguments.
[[nodiscard]] FaultSchedule expand_schedule(const FaultPlan& plan, std::uint32_t device_count,
                                            std::int64_t horizon_slots,
                                            std::uint64_t master_seed);

class FaultInjector final : public mac::ChannelFaults {
 public:
  /// Draws the drift of `device_count` devices and seeds the drop stream.
  FaultInjector(const FaultPlan& plan, std::uint32_t device_count, std::uint64_t master_seed);

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
};

}  // namespace firefly::fault
