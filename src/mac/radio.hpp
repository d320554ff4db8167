// radio.hpp — the shared broadcast medium.
//
// All proximity signals flow through one `RadioMedium`.  A transmission is
// buffered for the current slot; at the slot boundary every registered
// receiver hears the set of transmissions, the channel assigns each one a
// received power, sub-threshold receptions are dropped, and same-resource
// receptions collide unless one captures (dominates the sum of the rest by
// the capture margin).  The medium is also the *single meter* for Fig. 4:
// every transmission is counted here by codec class, so FST and ST message
// counts are measured identically.
//
// A slot flush has one delivery sweep, over the candidate cache (see
// `rebuild`), serving every gate: per sender it compacts the candidates
// through the receiver gate (crashed devices, duty-cycled receivers asleep
// this slot), block-draws one fade and one channel-fault drop per gated
// candidate, and rejects provably sub-threshold fades on one compare before
// paying the gain transform (without channel faults the compare runs inside
// the draw loop).  A survivor's audibility is decided in milliwatts — the
// candidate's cached mean in mW times the floored fade gain — against the
// threshold in mW (see `AudibilityRule`), so the common path calls neither
// `pow` nor `log10`.  A flush on a stale cache (a device added or moved since
// the last `rebuild`) throws `std::logic_error`.
//
// Collision resolution decides capture in linear space.  The sweep stages
// every audible reception in one flat array in sweep order (candidate slot,
// transmission, fade gain, mW), and a stable counting sort of their 4 B
// indices groups them by receiver in first-touch order; resolution reads
// each 24 B entry in place through that index, so the entries are never
// copied.  A reception's dBm is derived from the cached mean and the gain
// only where something reads it: a decoded record's `rx_power` and the
// guard-band capture reference.  Per receiver, an O(k) prepass sums the
// milliwatts of each RACH resource (codec, preamble); a reception alone on
// its resource decodes, and a contended one of power P in a group summing to
// S decodes when P ≥ m·(S − P + N) (m the linear capture margin, N the noise
// floor).
// Only a reception within a relative 1e-9 guard band of that equality takes
// the dB reference — `pow` per same-resource entry summed in entry order,
// then the dBm compare — so every decision is bit-identical to the dB rule
// (see `CaptureRule`).  A preamble outside the pool is rejected by
// `broadcast` with `std::invalid_argument`.
//
// Delivery is batched: decoding appends one 16 B `RxEntry` per successful
// reception to a flat per-slot buffer (receivers in first-touch order,
// transmissions in sweep order within a receiver — the order per-pair
// callbacks used to fire in), and the slot's whole batch is handed to the
// owner's delivery sink in one call.  An entry names its transmission by
// index into the slot's transmission table, which the batch carries, so
// the sender, preamble, type, payload and send slot are stored once per
// transmission rather than once per reception; `RxBatch::operator[]`
// rebuilds the full `RxRecord`.  Protocol reactions run sequentially
// inside the sink in record order, so any state they mutate is visible to
// later records of the same slot exactly as it was under per-pair dispatch.
//
// Misuse is an error in every build: registering an id twice throws
// `std::invalid_argument`, and naming an unregistered id throws
// `std::out_of_range`.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <vector>

#include "geo/grid.hpp"
#include "geo/point.hpp"
#include "mac/rach.hpp"
#include "obs/telemetry.hpp"
#include "phy/channel.hpp"
#include "phy/energy.hpp"
#include "sim/simulator.hpp"

namespace firefly::mac {

/// One queued transmission: everything a decoded PS reports about its
/// sender, shared by all of its receptions.
struct Transmission {
  std::uint32_t sender;
  Preamble preamble;       ///< the RACH resource the PS occupies
  PsType type;
  std::uint64_t payload;   ///< protocol-defined (fragment id, phase, etc.)
  std::int64_t sent_slot;  ///< slot in which the PS was transmitted (entries
                           ///< in one batch can differ: a broadcast executing
                           ///< at the flush boundary joins the closing batch
                           ///< with the next slot's stamp)
};

/// One decoded PS, addressed by *receiver index* (the dense registration
/// slot, equal to the device id for engine-registered populations) so batch
/// consumers can index flat per-device arrays directly.  The full view of
/// one `RxEntry`: its transmission's fields plus the reception's own.
struct RxRecord {
  std::uint32_t sender;
  std::uint32_t rx_index;  ///< receiver's dense device index
  Preamble preamble;       ///< the RACH resource the PS occupied
  PsType type;
  std::uint64_t payload;   ///< protocol-defined (fragment id, phase, etc.)
  util::Dbm rx_power;
  std::int64_t sent_slot;  ///< see Transmission::sent_slot
};

/// One successful reception as the radio stores it (16 B): the
/// transmission it decoded, by index into the batch's transmission table,
/// and what only the reception knows.
struct RxEntry {
  std::uint32_t tx;        ///< index into RxBatch::transmissions
  std::uint32_t rx_index;  ///< receiver's dense device index
  double rx_dbm;           ///< received power, dBm
};

/// Every successful reception of one slot flush, in decode order (receivers
/// in first-touch order, transmissions in sweep order within a receiver),
/// over the slot's transmission table.  Both arrays stay valid while the
/// sink runs.
struct RxBatch {
  const RxEntry* entries;
  std::size_t count;
  const Transmission* transmissions;

  /// The full record of reception `k`.
  [[nodiscard]] RxRecord operator[](std::size_t k) const {
    const RxEntry& e = entries[k];
    const Transmission& t = transmissions[e.tx];
    return RxRecord{t.sender, e.rx_index, t.preamble, t.type,
                    t.payload, util::Dbm{e.rx_dbm}, t.sent_slot};
  }

  /// The sender of reception `k`.
  [[nodiscard]] std::uint32_t sender(std::size_t k) const {
    return transmissions[entries[k].tx].sender;
  }
};

/// Per-codec transmission counters (the Fig. 4 meter).
struct TrafficCounters {
  std::uint64_t rach1_tx = 0;
  std::uint64_t rach2_tx = 0;
  std::uint64_t collisions = 0;   ///< receiver-side collision events
  std::uint64_t deliveries = 0;   ///< successful receptions
  std::uint64_t fault_drops = 0;  ///< receptions lost to channel faults

  [[nodiscard]] std::uint64_t total_tx() const { return rach1_tx + rach2_tx; }
};

/// Audibility of a fade survivor: its power must reach the detection
/// threshold.  The reference is the dBm compare (`exact`); `linear` decides
/// the same compare on the survivor's milliwatts and returns `kGuard` within
/// a relative `kGuardRel` of the threshold.  The two domains differ by a few
/// ulps of rounding (≈1e-14 relative), so a decisive linear verdict always
/// agrees with the reference and only guard-band survivors need their dBm.
class AudibilityRule {
 public:
  enum class Verdict : std::uint8_t { kInaudible, kAudible, kGuard };
  static constexpr double kGuardRel = 1e-9;

  explicit AudibilityRule(util::Dbm threshold);

  [[nodiscard]] Verdict linear(double p_mw) const {
    if (p_mw > audible_above_mw_) return Verdict::kAudible;
    if (p_mw < inaudible_below_mw_) return Verdict::kInaudible;
    return Verdict::kGuard;
  }
  [[nodiscard]] bool exact(util::Dbm power) const { return power >= threshold_; }
  /// The full decision: the linear verdict, or `exact(power())` in the band.
  template <typename PowerFn>
  [[nodiscard]] bool audible(double p_mw, PowerFn&& power) const {
    switch (linear(p_mw)) {
      case Verdict::kAudible: return true;
      case Verdict::kInaudible: return false;
      case Verdict::kGuard: break;
    }
    return exact(power());
  }

 private:
  util::Dbm threshold_;
  double audible_above_mw_;    // threshold in mW times (1 + kGuardRel)
  double inaudible_below_mw_;  // threshold in mW times (1 − kGuardRel)
};

/// The capture rule for a contended reception: it decodes when its power
/// exceeds the summed same-resource interference plus noise by the capture
/// margin.  The reference is stated in dB (`exact`); `linear` decides the
/// same compare in milliwatts and returns `kGuard` when the two sides lie
/// within a relative `kGuardRel` of each other, far wider than the rounding
/// gap between the domains, so a decisive linear verdict always agrees with
/// the reference and only guard-band entries need it.
class CaptureRule {
 public:
  enum class Verdict : std::uint8_t { kCollided, kDecoded, kGuard };
  static constexpr double kGuardRel = 1e-9;

  CaptureRule(double margin_db, double noise_mw);

  /// Verdict for a reception of `p_mw` in a resource group whose
  /// receptions sum to `group_mw` (`p_mw` included).
  [[nodiscard]] Verdict linear(double p_mw, double group_mw) const {
    const double rhs = margin_lin_ * (group_mw - p_mw + noise_mw_);
    const double slack = kGuardRel * (p_mw + margin_lin_ * (group_mw + noise_mw_));
    if (p_mw - rhs > slack) return Verdict::kDecoded;
    if (rhs - p_mw > slack) return Verdict::kCollided;
    return Verdict::kGuard;
  }
  /// The dB reference: `power` − dBm(`interference_mw` + noise) ≥ margin.
  [[nodiscard]] bool exact(util::Dbm power, double interference_mw) const;
  /// The full decision: the linear verdict, or `exact` on the power
  /// `power()` and the interference `exact_interference_mw()` return when
  /// the verdict is `kGuard` (neither is called otherwise).
  template <typename PowerFn, typename InterferenceFn>
  [[nodiscard]] bool decodes(double p_mw, PowerFn&& power, double group_mw,
                             InterferenceFn&& exact_interference_mw) const {
    switch (linear(p_mw, group_mw)) {
      case Verdict::kDecoded: return true;
      case Verdict::kCollided: return false;
      case Verdict::kGuard: break;
    }
    return exact(power(), exact_interference_mw());
  }

 private:
  double margin_db_;
  double margin_lin_;  // 10^(margin_db / 10)
  double noise_mw_;
};

/// Skip bounds are stored as floats (4 B a candidate instead of 8), rounded
/// up so they are only ever looser than the double bound (a uniform survives
/// while u < skip).  A looser bound draws the same randomness and only lets
/// more provably sub-threshold draws through to the exact dBm compare, which
/// rejects them, so no decision changes.  `fault_drops` stays exact too: a
/// fired drop counts once either way; a let-through draw without
/// attenuation fails the exact compare uncounted, as a skipped one is; with
/// attenuation it ends below threshold and the attenuated-survivor branch
/// counts it once, as the skip branch's `sub && atten` term counts a skipped
/// one.  Bounds are finite and non-negative, so the next float up is the
/// next bit pattern (adding the compare keeps the rounding branch-free).
[[nodiscard]] inline float round_skip_u(double skip_u) {
  const auto f = static_cast<float>(skip_u);
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(f) +
                              static_cast<std::uint32_t>(static_cast<double>(f) < skip_u));
}

/// A lower bound on a path-loss model's loss as a function of squared
/// distance, tabulated over `kBuckets` equal buckets of d² ∈ [0, max_d2].
/// Each entry is the loss at its bucket's lower edge, rounded outward: the
/// edge distance shrinks by a relative `kEdgeShrink` and the loss drops by
/// `kSlackDb`.  Both dwarf the few-ulp gap between a pair's dx²+dy² (which
/// picks the bucket) and its hypot (which the exact loss uses), so for a
/// model honouring `PathLossModel::loss`'s monotone contract the entry is
/// at most the exact loss of every pair in the bucket.  A d² past max_d2
/// reads the last bucket, which is still a lower bound.
class PathLossFloor {
 public:
  static constexpr std::size_t kBuckets = 1024;
  static constexpr double kEdgeShrink = 1e-9;
  static constexpr double kSlackDb = 1e-9;

  /// Tabulate `model` up to `max_d2`.  When max_d2 is not positive and
  /// finite, or its bucket width is not representable, every entry is −inf
  /// (the floor bounds nothing) and build returns false.
  bool build(const phy::PathLossModel& model, double max_d2);
  /// The floor for a pair at squared distance `d2` ≥ 0 (after `build`).
  [[nodiscard]] double lower_bound(double d2) const {
    const double t = d2 * inv_width_;
    return floor_db_[t < static_cast<double>(kBuckets - 1) ? static_cast<std::size_t>(t)
                                                           : kBuckets - 1];
  }

 private:
  std::vector<double> floor_db_;
  double inv_width_ = 0.0;
};

/// A candidate's skip bound by fading headroom h (mean less threshold) over
/// `kBuckets` buckets of h ∈ [−margin, kMaxLossDb], so admission pays no
/// libm call.  Entry b is `exact` at the bucket's upper edge plus
/// `kEdgeSlackDb`: the bound rises with h, so no entry is tighter than
/// `exact` in its bucket (the slack dwarfs index rounding and libm ulps),
/// and by `round_skip_u`'s argument no decision or fault-drop count
/// changes.  h ≥ kMaxLossDb or NaN never skips.
class SkipTable {
 public:
  static constexpr std::size_t kBuckets = 4096;
  static constexpr double kEdgeSlackDb = 1e-9;
  /// The fade-loss cap: a link with this much headroom is audible in any fade.
  inline static const double kMaxLossDb = -10.0 * std::log10(phy::FadingModel::kGainFloor);

  /// One link's uniform bound (`FadingModel::skip_u`), as a float rounded
  /// loosely.
  [[nodiscard]] static float exact(const phy::FadingModel& fading, double headroom_db);
  /// Tabulate `exact` for a (finite) fading margin.
  void build(const phy::FadingModel& fading, double margin_db);
  [[nodiscard]] float bound(double headroom_db) const {
    const double t = (headroom_db - lo_db_) * inv_width_;
    return bound_[!(t < static_cast<double>(kBuckets)) ? kBuckets
                  : t > 0.0                             ? static_cast<std::size_t>(t)
                                                        : 0];
  }

 private:
  std::vector<float> bound_;  // kBuckets entries, then one that never skips
  double lo_db_ = 0.0;
  double inv_width_ = 0.0;    // 0 if no headroom is below the cap: entry 0 never skips
};

/// Channel faults (fault-injection runs), answered in bulk: the delivery
/// sweep asks once per transmission for the drop draws and link
/// attenuations of its gated candidates — the receivers that are up and
/// awake, in ascending receiver index.  A fired drop, or an attenuation that
/// leaves the reception below threshold, is one fault drop
/// (`TrafficCounters::fault_drops`) — also when the reception would have
/// been sub-threshold anyway.  An infinite attenuation vetoes a reception
/// outright.  Faults are per receiver: the transmission still reaches the
/// other receivers normally.
class ChannelFaults {
 public:
  virtual ~ChannelFaults() = default;
  /// Writes one i.i.d. drop draw per gated candidate to `dropped[0..n)`
  /// (1 = lost), in candidate order.  Returns false, consuming no
  /// randomness and writing nothing, when there is no drop process.
  virtual bool fill_drops(std::uint8_t* dropped, std::size_t n) = 0;
  /// Writes the extra attenuation in dB (0 = clear) on `sender`'s
  /// transmission of `type` at each receiver `rx_index[0..n)` (registration
  /// indices, as `RxRecord::rx_index`) to `attenuation_db[0..n)`.  Returns
  /// false, writing nothing, when every one of those links is clear.
  virtual bool fill_attenuation(std::uint32_t sender, PsType type,
                                const std::uint32_t* rx_index, std::size_t n,
                                double* attenuation_db) = 0;

 protected:
  ChannelFaults() = default;
  ChannelFaults(const ChannelFaults&) = default;
  ChannelFaults(ChannelFaults&&) = default;
  ChannelFaults& operator=(const ChannelFaults&) = default;
  ChannelFaults& operator=(ChannelFaults&&) = default;
};

class RadioMedium {
 public:
  /// The per-slot delivery sink: called at most once per flush with the
  /// slot's whole decoded batch.  There is one sink for the medium (not one
  /// callback per device); receivers are identified by RxEntry::rx_index.
  using DeliverFn = std::function<void(const RxBatch&)>;
  /// Receiver-side duty cycling: a device whose predicate returns false is
  /// asleep and decodes nothing that slot.  Evaluated at delivery time, at
  /// most once per receiver per flush, so it must depend on the slot only.
  using ListenFn = std::function<bool()>;

  /// The capture rule reads the channel's `capture_margin_db` and
  /// `noise_floor`: a same-resource reception is decoded anyway when its
  /// power exceeds the *sum* of the interferers plus noise by the margin.
  RadioMedium(sim::Simulator* sim, phy::Channel* channel);

  /// Register a device.  Devices must be registered before the first slot
  /// boundary they use, in the index order the owner's delivery sink
  /// expects (RxRecord::rx_index is the registration slot).  `listening`
  /// may be null (always awake).  Throws `std::invalid_argument` if `id` is
  /// already registered.  Every other call naming a device id throws
  /// `std::out_of_range` when that id is not registered.
  void add_device(std::uint32_t id, geo::Vec2 position, ListenFn listening = nullptr);
  /// Update a device position (mobility support).
  void move_device(std::uint32_t id, geo::Vec2 position);
  [[nodiscard]] geo::Vec2 device_position(std::uint32_t id) const;

  /// Crash/recover lifecycle: a down device neither transmits (broadcasts
  /// are silently discarded and not metered) nor receives anything.
  void set_down(std::uint32_t id, bool down);
  [[nodiscard]] bool is_down(std::uint32_t id) const;

  /// Install the channel-fault model (null = fault-free delivery).  Not
  /// owned.
  void set_channel_faults(ChannelFaults* faults) { faults_ = faults; }

  /// Install the per-slot delivery sink (null = decoded PSs are metered but
  /// discarded, which is what the radio-only unit tests want).
  void set_delivery_sink(DeliverFn fn) { sink_ = std::move(fn); }

  /// Queue a broadcast for the slot containing now(); it is delivered to
  /// every in-range receiver at the next slot boundary.  Throws
  /// `std::invalid_argument` on a preamble outside the RACH pool (codec
  /// other than RACH1/RACH2, or index >= kPreamblePoolSize).
  void broadcast(std::uint32_t sender, Preamble preamble, PsType type, std::uint64_t payload);

  /// Rebuild the candidate cache: for every device, the receivers whose
  /// slot-averaged power is within `fading_margin_db` of being detectable,
  /// with that mean memoised so delivery never recomputes path loss or
  /// shadowing.  Pairs are enumerated in rows (grid-gathered when the range
  /// disc does not cover the world), and a table-driven loss bound spares
  /// most pairs the libm path; the admitted set, every mean and the order
  /// are an exhaustive scan's (see DESIGN.md).  Call after registering or
  /// moving devices: a flush on a stale cache throws `std::logic_error`.
  /// Throws `std::invalid_argument` on a non-finite margin.
  void rebuild(double fading_margin_db = phy::RadioParams::kCandidateFadingMarginDb);

  /// Visit every cached candidate pair once as fn(id_u, id_v, mean_dbm)
  /// with index(id_u) < index(id_v), in deterministic index-lexicographic
  /// order.  Throws `std::logic_error` on a stale cache.  The engine
  /// derives reliable links from this instead of a second O(N²) channel
  /// sweep.
  template <typename Fn>
  void for_each_candidate_pair(Fn&& fn) const {
    if (!cache_valid_) {
      throw std::logic_error("RadioMedium::for_each_candidate_pair: stale candidate cache");
    }
    for (std::size_t u = 0; u + 1 < cand_offsets_.size(); ++u) {
      for (std::size_t k = cand_offsets_[u]; k < cand_offsets_[u + 1]; ++k) {
        if (cand_rx_[k] <= u) continue;
        fn(devices_[u].id, devices_[cand_rx_[k]].id, util::Dbm{cand_mean_[k]});
      }
    }
  }

  /// The candidate cache's flat arrays, read-only (sender u's candidates
  /// occupy [offsets[u], offsets[u+1])).  Throws `std::logic_error` on a
  /// stale cache; valid until the next `rebuild`.
  struct CandidateView {
    std::span<const std::size_t> offsets;
    std::span<const std::uint32_t> rx;
    std::span<const double> mean_dbm;
    std::span<const double> mean_mw;
    std::span<const float> skip;
  };
  [[nodiscard]] CandidateView candidates() const;

  [[nodiscard]] const TrafficCounters& counters() const { return counters_; }
  /// Optional energy meter: charged one tx slot per broadcast and one rx
  /// slot per successful delivery.  Not owned; may be null.
  void set_energy_meter(phy::EnergyMeter* meter) { energy_ = meter; }
  /// Optional telemetry: a slot-delivery span per flush plus a batch-size
  /// histogram.  Not owned; null (the default) costs one pointer test per
  /// flush and nothing per delivery.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }

 private:
  struct DeviceEntry {
    std::uint32_t id;
    geo::Vec2 position;
    ListenFn listening;
  };

 public:
  /// Mutable-state checkpoint for the engine's in-process snapshot/restore.
  /// Geometry, the candidate cache and the installed hooks are not captured
  /// — they are position-derived and snapshots are restricted to static
  /// scenarios — so only traffic state is: the counters, the two slot
  /// buffers, the flush-armed flag and the down set.  The per-resource
  /// collision scratch is all zero between flushes, so it needs no rewind.
  struct StateSnapshot {
    TrafficCounters counters;
    std::vector<Transmission> pending;
    std::vector<Transmission> flushing;
    bool flush_scheduled = false;
    std::vector<std::uint8_t> down;
    std::size_t down_count = 0;
  };
  [[nodiscard]] StateSnapshot save_state() const;
  void restore_state(const StateSnapshot& snap);

  /// Pre-size the per-slot delivery scratch (the pending/flushing double
  /// buffer, the flat reception arrays and the decoded batch) for a
  /// worst case of `max_tx_per_slot` simultaneous transmissions.  These
  /// vectors never shrink, so they only allocate when a slot sets a new
  /// lifetime-record load; reserving past the workload's record up front
  /// makes a long soak's steady state allocation-free (the service-mode
  /// heap gate relies on this).  Purely a capacity hint — delivery
  /// behaviour is unchanged.
  void reserve_delivery(std::size_t max_tx_per_slot);

 private:
  /// A transmission audible at one receiver, pre-collision-resolution
  /// (24 B: the flat reception array is the slot's largest scratch).  It
  /// names the candidate slot — receiver and mean — and keeps the fade gain
  /// instead of the dBm: most staged receptions collide, and nothing reads
  /// their power in dB (see `power`).
  struct Reception {
    /// Set in `slot` when the power was computed eagerly (an attenuated
    /// link): `value` is then the received dBm, not the gain.
    static constexpr std::uint32_t kEager = 1U << 31;
    static constexpr std::uint32_t kSlotMask = kEager - 1;

    std::uint32_t slot;  ///< candidate-cache slot, possibly | kEager
    std::uint32_t tx;    ///< index into flushing_
    double value;        ///< the fade's linear power gain, or the dBm (kEager)
    double mw;           ///< the received power in milliwatts (see deliver_cached)
  };
  /// A staged reception's receiver device index.
  [[nodiscard]] std::uint32_t receiver_of(const Reception& r) const {
    return cand_rx_[r.slot & Reception::kSlotMask];
  }
  /// A staged reception's power, exactly as the sweep's dB expression gives
  /// it: derived only where a result reads it.
  [[nodiscard]] util::Dbm power_of(const Reception& r) const {
    if ((r.slot & Reception::kEager) != 0) return util::Dbm{r.value};
    return util::Dbm{cand_mean_[r.slot]} - phy::FadingModel::loss_from_gain(r.value);
  }
  void ensure_flush_scheduled();
  void flush_slot();
  [[nodiscard]] std::size_t index_of(std::uint32_t id) const;
  // `cutoff` is the detection threshold less the fading margin.
  void rebuild_bounded(double fading_margin_db, util::Dbm cutoff);
  void allocate_candidates();
  void admit_candidate(std::size_t u, std::size_t v, double mean_dbm, util::Dbm cutoff);
  void compact_candidates();
  [[nodiscard]] bool receiver_open(std::size_t rx_index);
  void push_audible(std::size_t slot, std::size_t tx_index, double value, double mw,
                    std::uint32_t eager = 0);
  void deliver_cached();
  void group_by_receiver();
  void resolve_receivers();

  sim::Simulator* sim_;
  phy::Channel* channel_;
  CaptureRule capture_;
  AudibilityRule audibility_;
  std::vector<DeviceEntry> devices_;
  std::vector<std::size_t> id_to_index_;  // device id -> devices_ slot
  std::vector<std::uint8_t> down_;        // by device index; 1 = crashed
  std::size_t down_count_ = 0;            // crashed devices (receiver gate active)
  ChannelFaults* faults_ = nullptr;
  bool any_listening_ = false;  // duty-cycle gates exist: the sweep must probe them
  // Per-flush awake memo: (flush epoch << 1) | awake, by device index, so
  // each listen predicate runs at most once per flush.
  std::vector<std::uint64_t> awake_tag_;
  std::uint64_t flush_epoch_ = 0;
  std::vector<Transmission> pending_;
  std::vector<Transmission> flushing_;  // double buffer: swap per flush, no allocation
  bool flush_scheduled_ = false;
  TrafficCounters counters_;
  phy::EnergyMeter* energy_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  // Candidate cache, structure-of-arrays: sender u's candidates occupy flat
  // slots [cand_offsets_[u], cand_offsets_[u+1]), ascending rx index (a
  // grid-gathered row is sorted), which pins the fading stream.  Parallel
  // arrays so the delivery sweep reads each field contiguously; allocated
  // uninitialised (rebuild writes every kept slot).
  std::vector<std::size_t> cand_offsets_;       // n+1 prefix offsets
  std::unique_ptr<std::uint32_t[]> cand_rx_;    // receiver device index
  std::unique_ptr<double[]> cand_mean_;         // memoised mean received power, dBm
  std::unique_ptr<double[]> cand_mean_mw_;      // the same mean in mW
  // Sub-threshold bound of the link: fading uniforms at/above it are
  // sub-threshold.  Rounded to float, loosely (see round_skip_u and
  // SkipTable).
  std::unique_ptr<float[]> cand_skip_;
  std::size_t cand_capacity_ = 0;               // slots allocated per cand_ array
  std::vector<std::size_t> cand_cursor_;        // rebuild write cursors (reused)
  // Per-sender sweep scratch, indexed by gated-candidate position.
  std::vector<std::uint32_t> gate_pos_;     // gated candidate -> slice position
  std::vector<std::uint32_t> gate_rx_;      // gated candidate -> receiver index
  std::vector<double> draw_;                // fading uniforms; survivors' compacted
  std::vector<double> gain_;                // survivor j's gain
  std::vector<std::uint8_t> drop_;          // fault drop draws
  std::vector<double> atten_db_;            // fault link attenuations; survivors' compacted
  std::vector<std::uint32_t> survivors_;    // survivor j's slice position
  // The slot's audible receptions: staged_ in sweep order; order_ holds
  // their staged_ indices grouped by receiver in first-touch order
  // (touched_), each receiver's range ending at rx_end_[receiver]
  // (0 = untouched).
  std::vector<Reception> staged_;
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> rx_end_;          // by device index
  std::vector<std::uint32_t> touched_;         // receivers with receptions
  std::vector<std::uint32_t> tx_key_;          // resource key per flushing_ entry
  DeliverFn sink_;                             // per-slot batch consumer
  std::vector<RxEntry> rx_entries_;            // this slot's decoded batch
  // Per-resource reception counts and milliwatt sums for the collision
  // prepass: one slot per (codec, preamble) pool entry, keyed
  // (codec − 1)·kPreamblePoolSize + index.  All zero outside a receiver's
  // resolution: it accumulates into them, then zeroes the keys it touched.
  static constexpr std::uint32_t kResourceCodecs = 2;
  static constexpr std::size_t kResourceSlots =
      static_cast<std::size_t>(kResourceCodecs) * kPreamblePoolSize;
  std::uint32_t group_count_[kResourceSlots] = {};
  double group_mw_[kResourceSlots] = {};
  bool cache_valid_ = false;
  PathLossFloor loss_floor_;    // rebuild's per-world path-loss bound table
  SkipTable skip_table_;        // rebuild's per-margin skip bound table
  geo::SpatialGrid grid_;
  bool grid_ready_ = false;     // cell membership current (maintained by move_device)
};

}  // namespace firefly::mac
