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
// A slot flush has exactly two delivery sweeps.  With a valid candidate
// cache (grid or dense, see `rebuild`) one batched sweep serves every gate:
// per sender it compacts the candidates through the receiver gate (crashed
// devices, duty-cycled receivers asleep this slot), block-draws one fade per
// gated candidate, block-draws the channel-fault drops over the same run,
// and rejects provably sub-threshold fades on one compare before paying the
// gain transform.  Without a valid cache, a per-pair scan over every device
// evaluates the same gates and draws in the same order.
//
// Collision resolution groups each receiver's receptions by RACH resource
// (codec, preamble) in O(k); a preamble outside the pool is rejected by
// `broadcast` with `std::invalid_argument`.
//
// Delivery is batched: decoding appends one `RxRecord` per successful
// reception to a flat per-slot buffer (in receiver-bucket order — the same
// order the old per-pair callbacks fired in), and the slot's whole batch is
// handed to the owner's delivery sink in one call.  Protocol reactions run
// sequentially inside the sink in record order, so any state they mutate is
// visible to later records of the same slot exactly as it was under
// per-pair dispatch.
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <vector>

#include "geo/grid.hpp"
#include "geo/point.hpp"
#include "mac/rach.hpp"
#include "obs/telemetry.hpp"
#include "phy/channel.hpp"
#include "phy/energy.hpp"
#include "sim/simulator.hpp"

namespace firefly::mac {

/// One decoded PS, addressed by *receiver index* (the dense registration
/// slot, equal to the device id for engine-registered populations) so batch
/// consumers can index flat per-device arrays directly.
struct RxRecord {
  std::uint32_t sender;
  std::uint32_t rx_index;  ///< receiver's dense device index
  Preamble preamble;       ///< the RACH resource the PS occupied
  PsType type;
  std::uint64_t payload;   ///< protocol-defined (fragment id, phase, etc.)
  util::Dbm rx_power;
  sim::SimTime slot_start; ///< slot in which the PS was transmitted (records
                           ///< in one batch can differ: a broadcast executing
                           ///< at the flush boundary joins the closing batch
                           ///< with the next slot's stamp)
};

/// The contiguous span of every successful reception of one slot flush, in
/// decode order (receiver-bucket order, in-bucket transmission order).
struct RxBatch {
  const RxRecord* records;
  std::size_t count;
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
  /// callback per device); receivers are identified by RxRecord::rx_index.
  using DeliverFn = std::function<void(const RxBatch&)>;
  /// Receiver-side duty cycling: a device whose predicate returns false is
  /// asleep and decodes nothing that slot.  Evaluated at delivery time, at
  /// most once per receiver per flush, so it must depend on the slot only.
  using ListenFn = std::function<bool()>;

  /// `capture_margin_db`: a same-resource reception is decoded anyway when
  /// its power exceeds the *sum* of the interferers by this margin.
  RadioMedium(sim::Simulator* sim, phy::Channel* channel, double capture_margin_db = 6.0);

  /// Register a device.  Devices must be registered before the first slot
  /// boundary they use, in the index order the owner's delivery sink
  /// expects (RxRecord::rx_index is the registration slot).  `listening`
  /// may be null (always awake).
  void add_device(std::uint32_t id, geo::Vec2 position, ListenFn listening = nullptr);
  /// Update a device position (mobility support).
  void move_device(std::uint32_t id, geo::Vec2 position);
  [[nodiscard]] geo::Vec2 device_position(std::uint32_t id) const;
  [[nodiscard]] std::size_t device_count() const { return devices_.size(); }

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
  /// shadowing.  Enumeration is grid-indexed (O(N·k) cell queries keyed by
  /// the channel's max detectable range) or dense O(N²) per
  /// `RadioParams::spatial_index`; both produce identical caches.  The cache
  /// is stored structure-of-arrays (one flat `ids`/`mean`/`skip` array per
  /// field, prefix-offset indexed per sender) so a slot flush sweeps
  /// contiguous memory.  Both indexes are served by the same batched
  /// delivery sweep.  Call after registering devices and after
  /// `invalidate`.
  void rebuild(double fading_margin_db = phy::RadioParams::kCandidateFadingMarginDb);
  /// Mark the candidate cache stale.  Delivery falls back to a dense
  /// per-slot scan until the next `rebuild` (`add_device` and `move_device`
  /// invalidate implicitly; mobility steps rebuild right after moving).
  void invalidate() { cache_valid_ = false; }
  [[nodiscard]] bool cache_valid() const { return cache_valid_; }

  /// Visit every cached candidate pair once as fn(id_u, id_v, mean_dbm)
  /// with index(id_u) < index(id_v), in deterministic index-lexicographic
  /// order.  Requires a valid cache.  The engine derives reliable links
  /// from this instead of a second O(N²) channel sweep.
  template <typename Fn>
  void for_each_candidate_pair(Fn&& fn) const {
    assert(cache_valid_);
    for (std::size_t u = 0; u + 1 < cand_offsets_.size(); ++u) {
      for (std::size_t k = cand_offsets_[u]; k < cand_offsets_[u + 1]; ++k) {
        if (cand_rx_[k] <= u) continue;
        fn(devices_[u].id, devices_[cand_rx_[k]].id, util::Dbm{cand_mean_[k]});
      }
    }
  }

  [[nodiscard]] const TrafficCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = {}; }
  /// Optional energy meter: charged one tx slot per broadcast and one rx
  /// slot per successful delivery.  Not owned; may be null.
  void set_energy_meter(phy::EnergyMeter* meter) { energy_ = meter; }
  /// Optional telemetry: a slot-delivery span per flush plus a batch-size
  /// histogram.  Not owned; null (the default) costs one pointer test per
  /// flush and nothing per delivery.
  void set_telemetry(obs::Telemetry* telemetry) { telemetry_ = telemetry; }
  [[nodiscard]] phy::Channel& channel() { return *channel_; }
  [[nodiscard]] sim::Simulator& simulator() { return *sim_; }

  /// Slot index containing time t.
  [[nodiscard]] static std::int64_t slot_index(sim::SimTime t) {
    return t.us / sim::kLteSlot.us;
  }

 private:
  struct DeviceEntry {
    std::uint32_t id;
    geo::Vec2 position;
    ListenFn listening;
  };
  struct PendingTx {
    std::uint32_t sender;
    Preamble preamble;
    PsType type;
    std::uint64_t payload;
    sim::SimTime slot_start;
  };

 public:
  /// Mutable-state checkpoint for the engine's in-process snapshot/restore.
  /// Geometry, the candidate cache and the installed hooks are not captured
  /// — they are position-derived and snapshots are restricted to static
  /// scenarios — so only traffic state is: the counters, the two slot
  /// buffers, the flush-armed flag and the down set.  The per-resource
  /// collision scratch is epoch-tagged and rewound wholesale on restore.
  struct StateSnapshot {
    TrafficCounters counters;
    std::vector<PendingTx> pending;
    std::vector<PendingTx> flushing;
    bool flush_scheduled = false;
    std::vector<std::uint8_t> down;
    std::size_t down_count = 0;
  };
  [[nodiscard]] StateSnapshot save_state() const;
  void restore_state(const StateSnapshot& snap);

  /// Pre-size the per-slot delivery scratch (the pending/flushing double
  /// buffer, the per-receiver audible buckets and their side arrays) for a
  /// worst case of `max_tx_per_slot` simultaneous transmissions.  These
  /// vectors never shrink, so they only allocate when a slot sets a new
  /// lifetime-record load; reserving past the workload's record up front
  /// makes a long soak's steady state allocation-free (the service-mode
  /// heap gate relies on this).  Purely a capacity hint — delivery
  /// behaviour is unchanged.
  void reserve_delivery(std::size_t max_tx_per_slot);

 private:
  /// A transmission audible at one receiver, pre-collision-resolution.
  struct Audible {
    const PendingTx* tx;
    util::Dbm power;
  };
  /// One admitted candidate pair, staged during rebuild before the scatter
  /// into the flat per-sender arrays.
  struct PairRec {
    std::uint32_t u, v;
    double mean_dbm;
    double skip_gain;
    double skip_u;
  };

  void ensure_flush_scheduled();
  void flush_slot();
  [[nodiscard]] std::size_t index_of(std::uint32_t id) const;
  void admit_candidate(std::size_t u, std::size_t v, util::Dbm mean, util::Dbm cutoff);
  void scatter_candidates();
  [[nodiscard]] bool receiver_open(std::size_t rx_index);
  void push_audible(std::size_t rx_index, const PendingTx& tx, util::Dbm power);
  void deliver_cached();
  void add_audible(std::size_t rx_index, const PendingTx& tx);
  void resolve_receivers();

  sim::Simulator* sim_;
  phy::Channel* channel_;
  double capture_margin_db_;
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
  std::vector<PendingTx> pending_;
  std::vector<PendingTx> flushing_;  // double buffer: swap per flush, no allocation
  bool flush_scheduled_ = false;
  TrafficCounters counters_;
  phy::EnergyMeter* energy_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  // Candidate cache, structure-of-arrays: sender u's candidates occupy flat
  // slots [cand_offsets_[u], cand_offsets_[u+1]), ascending rx index —
  // identical order for grid and dense enumeration, which pins the fading
  // stream.  Parallel arrays so the delivery sweep reads each field
  // contiguously.
  std::vector<std::size_t> cand_offsets_;   // n+1 prefix offsets
  std::vector<std::uint32_t> cand_rx_;      // receiver device index
  std::vector<double> cand_mean_;           // memoised mean received power, dBm
  std::vector<double> cand_skip_gain_;      // fades below this are sub-threshold
  std::vector<double> cand_skip_u_;         // uniforms at/above this are sub-threshold
  std::vector<PairRec> pair_scratch_;       // rebuild staging (reused)
  std::vector<std::size_t> cand_cursor_;    // rebuild scatter cursors (reused)
  // Per-sender sweep scratch, indexed by gated-candidate position.
  std::vector<std::uint32_t> iota_;         // 0, 1, 2, ... (ungated positions)
  std::vector<std::uint32_t> gate_pos_;     // gated candidate -> slice position
  std::vector<std::uint32_t> gate_rx_;      // gated candidate -> receiver index
  std::vector<double> draw_;                // fading uniforms (or gains)
  std::vector<std::uint8_t> drop_;          // fault drop draws
  std::vector<double> atten_db_;            // fault link attenuations
  std::vector<std::uint32_t> survivors_;    // skip-test survivors
  std::vector<std::vector<Audible>> buckets_;  // per-receiver audible sets
  std::vector<std::size_t> touched_;           // receivers with non-empty buckets
  DeliverFn sink_;                             // per-slot batch consumer
  std::vector<RxRecord> rx_records_;           // this slot's decoded batch
  std::vector<std::uint32_t> res_key_;         // per-bucket resource keys
  std::vector<double> aud_mw_;                 // per-bucket memoised milliwatts
  // Epoch-marked per-resource chains for the collision prepass: one slot per
  // (codec, preamble) pool entry, keyed (codec − 1)·kPreamblePoolSize +
  // index, valid only while its epoch tag matches — no clearing between
  // buckets.
  static constexpr std::uint32_t kResourceCodecs = 2;
  static constexpr std::uint32_t kGroupNil = 0xFFFFFFFFU;
  static constexpr std::size_t kResourceSlots =
      static_cast<std::size_t>(kResourceCodecs) * kPreamblePoolSize;
  std::uint64_t group_epoch_ = 0;
  std::uint64_t group_seen_[kResourceSlots] = {};
  std::uint32_t group_head_[kResourceSlots] = {};
  std::uint32_t group_tail_[kResourceSlots] = {};
  std::uint32_t group_count_[kResourceSlots] = {};
  std::vector<std::uint32_t> group_next_;      // per-bucket chain links
  bool cache_valid_ = false;
  bool uniform_skip_ = false;  // fading model offers the u-space skip test
  geo::SpatialGrid grid_;
  bool grid_ready_ = false;     // cell membership current (maintained by move_device)
};

}  // namespace firefly::mac
