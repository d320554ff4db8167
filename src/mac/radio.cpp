#include "mac/radio.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/timer.hpp"

namespace firefly::mac {

namespace {

constexpr std::size_t kUnregistered = std::numeric_limits<std::size_t>::max();

CaptureRule capture_rule_of(const phy::Channel* channel) {
  if (channel == nullptr) throw std::invalid_argument("RadioMedium: null channel");
  const phy::RadioParams& params = channel->params();
  return CaptureRule(params.capture_margin_db, params.noise_floor.milliwatts());
}

}  // namespace

CaptureRule::CaptureRule(double margin_db, double noise_mw)
    : margin_db_(margin_db), margin_lin_(std::pow(10.0, margin_db / 10.0)), noise_mw_(noise_mw) {}

bool CaptureRule::exact(util::Dbm power, double interference_mw) const {
  return (power - util::dbm_from_milliwatts(interference_mw + noise_mw_)).value >= margin_db_;
}

AudibilityRule::AudibilityRule(util::Dbm threshold)
    : threshold_(threshold),
      audible_above_mw_(threshold.milliwatts() * (1.0 + kGuardRel)),
      inaudible_below_mw_(threshold.milliwatts() * (1.0 - kGuardRel)) {}

RadioMedium::RadioMedium(sim::Simulator* sim, phy::Channel* channel)
    : sim_(sim),
      channel_(channel),
      capture_(capture_rule_of(channel)),
      audibility_(channel->params().detection_threshold) {
  if (sim_ == nullptr) throw std::invalid_argument("RadioMedium: null simulator");
}

void RadioMedium::add_device(std::uint32_t id, geo::Vec2 position, ListenFn listening) {
  if (id >= id_to_index_.size()) id_to_index_.resize(id + std::size_t{1}, kUnregistered);
  if (id_to_index_[id] != kUnregistered) {
    throw std::invalid_argument("RadioMedium::add_device: duplicate device id");
  }
  id_to_index_[id] = devices_.size();
  devices_.push_back(DeviceEntry{id, position, std::move(listening)});
  if (devices_.back().listening) any_listening_ = true;
  down_.push_back(0);
  awake_tag_.push_back(0);
  rx_end_.push_back(0);
  cache_valid_ = false;
  grid_ready_ = false;  // population changed: next rebuild re-seeds the grid
}

void RadioMedium::set_down(std::uint32_t id, bool down) {
  std::uint8_t& flag = down_[index_of(id)];
  const std::uint8_t next = down ? 1 : 0;
  if (flag == next) return;
  flag = next;
  if (down) {
    ++down_count_;
  } else {
    assert(down_count_ > 0);
    --down_count_;
  }
}

bool RadioMedium::is_down(std::uint32_t id) const {
  return down_[index_of(id)] != 0;
}

std::size_t RadioMedium::index_of(std::uint32_t id) const {
  if (id >= id_to_index_.size() || id_to_index_[id] == kUnregistered) {
    throw std::out_of_range("RadioMedium: unregistered device id");
  }
  return id_to_index_[id];
}

void RadioMedium::move_device(std::uint32_t id, geo::Vec2 position) {
  const std::size_t idx = index_of(id);
  devices_[idx].position = position;
  // Cell membership tracks the move incrementally; the memoised means are
  // stale until the caller rebuilds (mobility steps move every device,
  // then rebuild once).
  if (grid_ready_) grid_.move(idx, position);
  cache_valid_ = false;
}

geo::Vec2 RadioMedium::device_position(std::uint32_t id) const {
  return devices_[index_of(id)].position;
}

bool PathLossFloor::build(const phy::PathLossModel& model, double max_d2) {
  const double width = max_d2 / static_cast<double>(kBuckets);
  inv_width_ = static_cast<double>(kBuckets) / max_d2;
  floor_db_.resize(kBuckets);
  if (!(std::isfinite(max_d2) && width > 0.0 && std::isfinite(inv_width_))) {
    // Every d², NaN included, then reads an entry that rejects nothing.
    inv_width_ = 0.0;
    std::fill(floor_db_.begin(), floor_db_.end(), -std::numeric_limits<double>::infinity());
    return false;
  }
  for (std::size_t b = 0; b < kBuckets; ++b) {
    const double edge_m = std::sqrt(static_cast<double>(b) * width) * (1.0 - kEdgeShrink);
    floor_db_[b] = model.loss(edge_m).value - kSlackDb;
  }
  return true;
}

float SkipTable::exact(const phy::FadingModel& fading, double headroom_db) {
  // Gains below skip_gain provably leave the reception sub-threshold (1e-9
  // dB absorbs pow/log rounding).  At the cap the link is audible in any
  // fade: skip_gain 0 maps to skip_u > 1, never skipping.
  const double skip_gain =
      headroom_db < kMaxLossDb ? std::pow(10.0, -(headroom_db + 1e-9) / 10.0) : 0.0;
  return round_skip_u(fading.skip_u(skip_gain));
}

void SkipTable::build(const phy::FadingModel& fading, double margin_db) {
  lo_db_ = -margin_db;
  const double width = (kMaxLossDb - lo_db_) / static_cast<double>(kBuckets);
  inv_width_ = width > 0.0 ? 1.0 / width : 0.0;
  bound_.resize(kBuckets + 1);
  for (std::size_t b = 0; b <= kBuckets; ++b) {
    const double edge = lo_db_ + static_cast<double>(b + 1) * width + kEdgeSlackDb;
    bound_[b] = exact(fading, b < kBuckets && width > 0.0 ? edge : kMaxLossDb);
  }
}

void RadioMedium::rebuild(double fading_margin_db) {
  if (!std::isfinite(fading_margin_db)) {
    throw std::invalid_argument("RadioMedium::rebuild: non-finite fading margin");
  }
  cache_valid_ = false;
  const util::Dbm cutoff = channel_->params().detection_threshold - util::Db{fading_margin_db};
  skip_table_.build(channel_->fading(), fading_margin_db);
  const std::size_t n = devices_.size();
  cand_offsets_.assign(n + 1, 0);
  if (n >= 2) {
    rebuild_bounded(fading_margin_db, cutoff);
  } else {
    allocate_candidates();  // no pairs: every slice is empty
  }
  compact_candidates();
  cache_valid_ = true;
}

void RadioMedium::allocate_candidates() {
  // cand_offsets_[u + 1] holds u's survivor count on either side of a pair,
  // so the prefix sums give every sender a slice with room for all of them.
  const std::size_t n = devices_.size();
  for (std::size_t i = 0; i < n; ++i) cand_offsets_[i + 1] += cand_offsets_[i];
  const std::size_t total = cand_offsets_[n];
  if (total > Reception::kSlotMask) {
    throw std::length_error("RadioMedium::rebuild: 2^31 or more candidate pairs");
  }
  if (total > cand_capacity_) {
    cand_rx_ = std::make_unique_for_overwrite<std::uint32_t[]>(total);
    cand_mean_ = std::make_unique_for_overwrite<double[]>(total);
    cand_mean_mw_ = std::make_unique_for_overwrite<double[]>(total);
    cand_skip_ = std::make_unique_for_overwrite<float[]>(total);
    cand_capacity_ = total;
  }
  cand_cursor_.assign(cand_offsets_.begin(), cand_offsets_.end() - 1);
}

inline void RadioMedium::admit_candidate(std::size_t u, std::size_t v, double mean_dbm,
                                         util::Dbm cutoff) {
  const util::Dbm mean{mean_dbm};
  if (mean < cutoff) return;
  const float skip = skip_table_.bound((mean - channel_->params().detection_threshold).value);
  const double mean_mw = mean.milliwatts();
  // Rows ascend, so a slice gets its lower neighbours, then its own row's
  // upper ones: ascending receivers, which pins the fading-draw order.
  const std::size_t ku = cand_cursor_[u]++;
  cand_rx_[ku] = static_cast<std::uint32_t>(v);
  cand_mean_[ku] = mean_dbm;
  cand_mean_mw_[ku] = mean_mw;
  cand_skip_[ku] = skip;
  const std::size_t kv = cand_cursor_[v]++;
  cand_rx_[kv] = static_cast<std::uint32_t>(u);
  cand_mean_[kv] = mean_dbm;
  cand_mean_mw_[kv] = mean_mw;
  cand_skip_[kv] = skip;
}

void RadioMedium::compact_candidates() {
  // Slice u holds its admitted candidates up to its cursor; survivors that
  // exact admission rejected leave a gap at its end.  Slices only move
  // left, so ascending order never overwrites an unread slot.
  const std::size_t n = devices_.size();
  std::size_t w = 0;
  for (std::size_t u = 0; u < n; ++u) {
    const std::size_t begin = cand_offsets_[u];
    const std::size_t end = cand_cursor_[u];
    cand_offsets_[u] = w;
    if (w != begin) {
      std::copy(cand_rx_.get() + begin, cand_rx_.get() + end, cand_rx_.get() + w);
      std::copy(cand_mean_.get() + begin, cand_mean_.get() + end, cand_mean_.get() + w);
      std::copy(cand_mean_mw_.get() + begin, cand_mean_mw_.get() + end, cand_mean_mw_.get() + w);
      std::copy(cand_skip_.get() + begin, cand_skip_.get() + end, cand_skip_.get() + w);
    }
    w += end - begin;
  }
  cand_offsets_[n] = w;
}

void RadioMedium::rebuild_bounded(double fading_margin_db, util::Dbm cutoff) {
  const std::size_t n = devices_.size();
  std::vector<std::uint32_t> ids(n);
  std::vector<std::uint32_t> index(n);
  std::vector<geo::Vec2> pos(n);
  geo::Vec2 lo = devices_[0].position;
  geo::Vec2 hi = lo;
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    const geo::Vec2 p = devices_[i].position;
    ids[i] = devices_[i].id;
    index[i] = static_cast<std::uint32_t>(i);
    pos[i] = p;
    finite = finite && std::isfinite(p.x) && std::isfinite(p.y);
    lo = {std::min(lo.x, p.x), std::min(lo.y, p.y)};
    hi = {std::max(hi.x, p.x), std::max(hi.y, p.y)};
  }
  const double max_d2 = geo::distance_squared(lo, hi);

  // Rows of pairs u < v, v ascending.  When the range disc does not cover
  // the world the row is grid-gathered: candidate admission needs mean >=
  // cutoff, i.e. PL(d) <= tx − threshold + margin + max shadowing gain —
  // exactly max_detectable_range(margin) — and the gathered cells are a
  // superset of that disc.  Otherwise (the paper's density, unbounded
  // shadowing, a degenerate world) the row is every v > u, the same pairs
  // in the same order a gather-and-sort would visit, and the grid is not
  // built until some rebuild needs it.
  const double range = channel_->max_detectable_range(fading_margin_db);
  const bool gather = std::isfinite(range) && range > 0.0 && range * range < max_d2;
  if (gather && !grid_ready_) {
    grid_.build(pos, range);
    grid_ready_ = true;
  }

  // The reject test.  A pair is dropped before any libm call when
  //   floor(PL at its d² bucket) + lower bound on its shadowing loss
  //     > (tx − cutoff) + kRejectGuardDb.
  // Both tables are rounded outward, so the left side is at most PL + S;
  // the guard is many orders above the rounding of the computed mean
  // (tx − PL) − S, which is two operations on values of a few hundred dB
  // (≈1e-13), and of the bound's own sum.  So a rejected pair has
  // computed mean < cutoff − guard/2 and would fail the exact
  // `mean < cutoff` admission too: the admitted set, every mean and the
  // order are exactly the unbounded scan's.  Non-finite positions get no
  // path-loss table, so their pairs always take the exact path.
  constexpr double kRejectGuardDb = 1e-6;
  loss_floor_.build(channel_->pathloss(), finite ? max_d2 : 0.0);
  const double reject_above = (channel_->params().tx_power - cutoff).value +
                              kRejectGuardDb;

  // Pass 1: each row's bound survivors, appended row-major to one list and
  // counted on both sides of each pair.
  const phy::ShadowingModel& shadowing = channel_->shadowing();
  std::vector<std::uint32_t> near;
  std::vector<std::uint32_t> near_ids;
  std::vector<double> shadow_lo(n);
  std::vector<std::uint32_t> surv(n);
  std::vector<std::uint32_t> survivors;
  std::vector<std::size_t> row_end(n);  // row u's survivors end at row_end[u]
  for (std::size_t u = 0; u + 1 < n; ++u) {
    const std::uint32_t* row = index.data() + u + 1;
    const std::uint32_t* row_ids = ids.data() + u + 1;
    std::size_t m = n - u - 1;
    if (gather) {
      near.clear();
      grid_.gather(pos[u], range, near);
      std::sort(near.begin(), near.end());
      const auto first = std::upper_bound(near.begin(), near.end(), static_cast<std::uint32_t>(u));
      row = near.data() + (first - near.begin());
      m = static_cast<std::size_t>(near.end() - first);
      near_ids.resize(m);
      for (std::size_t k = 0; k < m; ++k) near_ids[k] = ids[row[k]];
      row_ids = near_ids.data();
    }
    const geo::Vec2 pu = pos[u];
    shadowing.loss_lower_bounds(ids[u], row_ids, m, shadow_lo.data());
    // Branch-free compaction: every pair is written, survivors advance.
    std::size_t s = 0;
    for (std::size_t k = 0; k < m; ++k) {
      const std::uint32_t v = row[k];
      const double dx = pu.x - pos[v].x;
      const double dy = pu.y - pos[v].y;
      surv[s] = v;
      s += static_cast<std::size_t>(
          !(loss_floor_.lower_bound(dx * dx + dy * dy) + shadow_lo[k] > reject_above));
    }
    survivors.insert(survivors.end(), surv.begin(), surv.begin() + static_cast<std::ptrdiff_t>(s));
    cand_offsets_[u + 1] += s;
    for (std::size_t j = 0; j < s; ++j) ++cand_offsets_[surv[j] + std::size_t{1}];
    row_end[u] = survivors.size();
  }

  // Pass 2: the survivors' exact means, one batched call per row, admitted
  // in place.
  allocate_candidates();
  std::vector<std::uint32_t> surv_ids(n);
  std::vector<geo::Vec2> surv_pos(n);
  std::vector<double> mean(n);
  std::size_t begin = 0;
  for (std::size_t u = 0; u + 1 < n; ++u) {
    const std::uint32_t* row = survivors.data() + begin;
    const std::size_t s = row_end[u] - begin;
    begin = row_end[u];
    for (std::size_t j = 0; j < s; ++j) {
      surv_ids[j] = ids[row[j]];
      surv_pos[j] = pos[row[j]];
    }
    channel_->mean_received_powers(ids[u], pos[u], surv_ids.data(), surv_pos.data(), s,
                                   mean.data());
    for (std::size_t j = 0; j < s; ++j) admit_candidate(u, row[j], mean[j], cutoff);
  }
}

RadioMedium::CandidateView RadioMedium::candidates() const {
  if (!cache_valid_) throw std::logic_error("RadioMedium::candidates: stale candidate cache");
  const std::size_t k = cand_offsets_.back();
  return {cand_offsets_, {cand_rx_.get(), k}, {cand_mean_.get(), k}, {cand_mean_mw_.get(), k},
          {cand_skip_.get(), k}};
}

void RadioMedium::broadcast(std::uint32_t sender, Preamble preamble, PsType type,
                            std::uint64_t payload) {
  if (preamble.index >= kPreamblePoolSize ||
      (preamble.codec != RachCodec::kRach1 && preamble.codec != RachCodec::kRach2)) {
    throw std::invalid_argument("RadioMedium::broadcast: preamble outside the RACH pool");
  }
  if (down_[index_of(sender)] != 0) return;  // crashed: PA is off
  pending_.push_back(Transmission{sender, preamble, type, payload, sim_->now()});
  if (energy_ != nullptr) energy_->record_tx(sender);
  switch (preamble.codec) {
    case RachCodec::kRach1: ++counters_.rach1_tx; break;
    case RachCodec::kRach2: ++counters_.rach2_tx; break;
  }
  ensure_flush_scheduled();
}

void RadioMedium::ensure_flush_scheduled() {
  if (flush_scheduled_) return;
  flush_scheduled_ = true;
  // Deliver at the end of the current slot.
  sim_->schedule_in(1, [this] { flush_slot(); });
}

bool RadioMedium::receiver_open(std::size_t rx_index) {
  if (down_[rx_index] != 0) return false;  // crashed receiver hears nothing
  if (!any_listening_) return true;
  // Duty-cycle predicates depend on the slot only: evaluate each at most
  // once per flush.
  std::uint64_t& tag = awake_tag_[rx_index];
  if ((tag >> 1) != flush_epoch_) {
    const ListenFn& listening = devices_[rx_index].listening;
    tag = (flush_epoch_ << 1) | static_cast<std::uint64_t>(!listening || listening());
  }
  return (tag & 1) != 0;
}

inline void RadioMedium::push_audible(std::size_t slot, std::size_t tx_index, double value,
                                      double mw, std::uint32_t eager) {
  const std::uint32_t rx_index = cand_rx_[slot];
  staged_.push_back(Reception{static_cast<std::uint32_t>(slot) | eager,
                              static_cast<std::uint32_t>(tx_index), value, mw});
  if (rx_end_[rx_index]++ == 0) touched_.push_back(rx_index);
}

void RadioMedium::deliver_cached() {
  // The one batched sweep, for every gate.  Per sender: compact the
  // candidates through the receiver gate, then draw exactly one fade per
  // gated candidate in one block (and, with channel faults, one drop draw
  // per gated candidate from the fault stream) — the draws a per-candidate
  // loop would make, in the same order.  A fade that provably leaves the
  // reception sub-threshold is rejected on one compare of its uniform;
  // unless a fade is active on the sender, that compare (and the drop mask)
  // runs inside the draw loop, which keeps only the survivors' uniforms.
  // Only survivors pay the gain transform — one batched
  // `gains_from_uniforms` call per sender.  A rejected fade cannot become
  // audible under attenuation, but a fired drop or an attenuated link on it
  // still counts as a fault drop.  The float
  // bounds are loose, so a survivor may still be provably sub-threshold:
  // the audibility rule rejects it and counts it as the skip would have
  // (see round_skip_u).  A survivor's milliwatts are the cached mean's times
  // the floored gain, and audibility is decided on them; only a survivor
  // within the rule's guard band pays the dBm (`log10`).  An attenuated one
  // pays its dBm and `pow` instead, as the exact reference.
  const bool gated = down_count_ != 0 || any_listening_;
  for (std::size_t t = 0; t < flushing_.size(); ++t) {
    const Transmission& tx = flushing_[t];
    const std::size_t s = index_of(tx.sender);
    const std::size_t begin = cand_offsets_[s];
    const std::size_t m = cand_offsets_[s + 1] - begin;
    if (m == 0) continue;
    if (draw_.size() < m) {
      gate_pos_.resize(m);
      gate_rx_.resize(m);
      draw_.resize(m);
      gain_.resize(m);
      drop_.resize(m);
      atten_db_.resize(m);
      survivors_.resize(m);
    }
    const std::uint32_t* pos = nullptr;  // gated candidate -> slice position (null: identity)
    const std::uint32_t* rx = cand_rx_.get() + begin;
    std::size_t n = m;
    if (gated) {
      n = 0;
      for (std::size_t k = 0; k < m; ++k) {
        if (!receiver_open(rx[k])) continue;
        gate_pos_[n] = static_cast<std::uint32_t>(k);
        gate_rx_[n++] = rx[k];
      }
      pos = gate_pos_.data();
      rx = gate_rx_.data();
    }
    const bool drops = faults_ != nullptr && faults_->fill_drops(drop_.data(), n);
    const bool faded = faults_ != nullptr &&
                       faults_->fill_attenuation(tx.sender, tx.type, rx, n, atten_db_.data());
    const float* skip = cand_skip_.get() + begin;
    std::size_t count = 0;
    if (!faded) {
      if (drops) {
        // Every fired drop is a fault drop, skipped fade or not.
        std::uint32_t dropped = 0;
        for (std::size_t i = 0; i < n; ++i) dropped += drop_[i] != 0 ? 1U : 0U;
        counters_.fault_drops += dropped;
      }
      count = channel_->fill_fading_survivors(skip, pos, n, draw_.data(), survivors_.data(),
                                              drops ? drop_.data() : nullptr);
    } else {
      // An active fade: survivors are compacted in place (count <= i), their
      // uniforms into draw_ and their attenuations into atten_db_.
      channel_->fill_fading_uniforms(draw_.data(), n);
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t k = pos != nullptr ? pos[i] : static_cast<std::uint32_t>(i);
        const bool sub = draw_[i] >= skip[k];
        const bool lost = (drops && drop_[i] != 0) || (sub && atten_db_[i] > 0.0);
        counters_.fault_drops += static_cast<std::uint64_t>(lost);
        draw_[count] = draw_[i];
        atten_db_[count] = atten_db_[i];
        survivors_[count] = k;
        count += static_cast<std::size_t>(!sub && !lost);
      }
    }
    channel_->fading().gains_from_uniforms(draw_.data(), count, gain_.data());
    for (std::size_t j = 0; j < count; ++j) {
      const std::size_t c = begin + survivors_[j];
      const double gain = gain_[j];
      if (faded && atten_db_[j] > 0.0) {
        const util::Dbm power = util::Dbm{cand_mean_[c]} -
                                phy::FadingModel::loss_from_gain(gain) - util::Db{atten_db_[j]};
        if (!channel_->detectable(power)) {
          ++counters_.fault_drops;  // faded below threshold
          continue;
        }
        push_audible(c, t, power.value, power.milliwatts(), Reception::kEager);
        continue;
      }
      const double mw = cand_mean_mw_[c] * std::max(gain, phy::FadingModel::kGainFloor);
      const auto power = [&] {
        return util::Dbm{cand_mean_[c]} - phy::FadingModel::loss_from_gain(gain);
      };
      if (!audibility_.audible(mw, power)) continue;  // borderline fade
      push_audible(c, t, gain, mw);
    }
  }
}

void RadioMedium::group_by_receiver() {
  // Stable counting sort of staged_ indices into order_, receivers in
  // first-touch order.  rx_end_ holds each touched receiver's count on entry
  // and its range end on exit.
  std::uint32_t start = 0;
  for (const std::uint32_t rx : touched_) {
    const std::uint32_t count = rx_end_[rx];
    rx_end_[rx] = start;
    start += count;
  }
  if (order_.size() < staged_.size()) order_.resize(staged_.size());
  const auto staged = static_cast<std::uint32_t>(staged_.size());
  for (std::uint32_t i = 0; i < staged; ++i) order_[rx_end_[receiver_of(staged_[i])]++] = i;
}

void RadioMedium::resolve_receivers() {
  // Resolve same-resource collisions per receiver with the capture rule.
  // Decoded receptions are appended to the slot's flat RxEntry batch in
  // grouped order — receivers in first-touch order, transmissions in sweep
  // order — and the owner's sink consumes the whole batch after this
  // returns.  Position i of a receiver's range is staged_[order_[i]].
  const Reception* staged = staged_.data();
  const std::uint32_t* order = order_.data();
  rx_entries_.clear();
  // A decoded reception reads its candidate's cached mean (power_of).  A
  // receiver's entries come from every sender's slice, so in a storm slot
  // that read misses the cache; prefetching it a few positions ahead lets
  // the misses overlap.
  constexpr std::uint32_t kMeanPrefetchAhead = 8;
  const auto staged_count = static_cast<std::uint32_t>(staged_.size());
  std::uint32_t begin = 0;
  for (const std::uint32_t rx_index : touched_) {
    const std::uint32_t end = rx_end_[rx_index];
    rx_end_[rx_index] = 0;
    const bool shared = end - begin > 1;
    if (shared) {
      // Contention prepass: one milliwatt sum and count per RACH resource
      // in one branch-free O(k) pass over zeroed slots (0.0 + mW is the mW
      // itself, so each sum is bit-identical to one seeded by its first
      // entry).  broadcast() admits only in-pool preambles, so every key
      // fits.  A receiver with one reception skips it: the reception's
      // slot stays at count 0 and it decodes.
      for (std::uint32_t i = begin; i < end; ++i) {
        const Reception& r = staged[order[i]];
        const std::uint32_t key = tx_key_[r.tx];
        ++group_count_[key];
        group_mw_[key] += r.mw;
      }
    }
    for (std::uint32_t i = begin; i < end; ++i) {
      if (i + kMeanPrefetchAhead < staged_count) {
        const Reception& ahead = staged[order[i + kMeanPrefetchAhead]];
        __builtin_prefetch(cand_mean_.get() + (ahead.slot & Reception::kSlotMask));
      }
      const Reception& r = staged[order[i]];
      const std::uint32_t key = tx_key_[r.tx];
      if (group_count_[key] > 1) {
        // Guard band only: the dB reference's interference, pow per
        // same-resource entry summed in entry order.
        const auto interference_mw = [&] {
          double sum = 0.0;
          for (std::uint32_t j = begin; j < end; ++j) {
            const Reception& e = staged[order[j]];
            if (j != i && tx_key_[e.tx] == key) sum += power_of(e).milliwatts();
          }
          return sum;
        };
        if (!capture_.decodes(r.mw, [&] { return power_of(r); }, group_mw_[key],
                              interference_mw)) {
          ++counters_.collisions;
          continue;
        }
      }
      ++counters_.deliveries;
      if (energy_ != nullptr) energy_->record_rx(devices_[rx_index].id);
      rx_entries_.push_back(RxEntry{r.tx, rx_index, power_of(r).value});
    }
    if (shared) {
      // Restore the all-zero invariant for the next receiver.
      for (std::uint32_t i = begin; i < end; ++i) {
        const std::uint32_t key = tx_key_[staged[order[i]].tx];
        group_count_[key] = 0;
        group_mw_[key] = 0.0;
      }
    }
    begin = end;
  }
}

void RadioMedium::flush_slot() {
  flush_scheduled_ = false;
  // Double buffer: swap the pending list into the flushing list (both keep
  // their capacity), so steady-state slot delivery never allocates.
  flushing_.clear();
  flushing_.swap(pending_);
  if (flushing_.empty()) return;
  if (!cache_valid_) throw std::logic_error("RadioMedium::flush_slot: stale candidate cache");
  const obs::ScopedTimer span(telemetry_, obs::SpanId::kSlotDelivery,
                              telemetry_ != nullptr ? static_cast<double>(sim_->now()) : -1.0);
  if (telemetry_ != nullptr) {
    telemetry_->observe("radio.slot_batch", {1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024},
                        static_cast<double>(flushing_.size()));
  }

  staged_.clear();
  touched_.clear();
  ++flush_epoch_;  // expires last flush's awake memo
  tx_key_.resize(flushing_.size());
  for (std::size_t t = 0; t < flushing_.size(); ++t) {
    const Preamble p = flushing_[t].preamble;
    tx_key_[t] = (static_cast<std::uint32_t>(p.codec) - 1) * kPreamblePoolSize + p.index;
  }

  deliver_cached();
  group_by_receiver();
  resolve_receivers();
  // Hand the slot's whole decoded batch to the owner in one call.  Protocol
  // reactions run here, sequentially in record order; broadcasts they issue
  // land in pending_ for the next slot, exactly as under per-pair dispatch
  // (now() already sits at the flush boundary either way) — so flushing_,
  // the batch's transmission table, stays put while the sink runs.
  if (sink_ && !rx_entries_.empty()) {
    sink_(RxBatch{rx_entries_.data(), rx_entries_.size(), flushing_.data()});
  }
}

void RadioMedium::reserve_delivery(std::size_t max_tx_per_slot) {
  pending_.reserve(max_tx_per_slot);
  flushing_.reserve(max_tx_per_slot);
  tx_key_.reserve(max_tx_per_slot);
  touched_.reserve(devices_.size());
  // Worst case one reception, and one decoded record, per (transmission,
  // receiver) pair; the soak heap gate needs these buffers to hit their
  // lifetime-record size during warm-up, so reserve for the storm, not the
  // steady state.  Reserving maps no pages: only slots actually filled
  // count against the resident set.
  const std::size_t storm = std::min<std::size_t>(max_tx_per_slot * devices_.size(), 1U << 20);
  staged_.reserve(storm);
  order_.reserve(storm);
  rx_entries_.reserve(storm);
}

RadioMedium::StateSnapshot RadioMedium::save_state() const {
  StateSnapshot snap;
  snap.counters = counters_;
  snap.pending = pending_;
  snap.flushing = flushing_;
  snap.flush_scheduled = flush_scheduled_;
  snap.down = down_;
  snap.down_count = down_count_;
  return snap;
}

void RadioMedium::restore_state(const StateSnapshot& snap) {
  counters_ = snap.counters;
  pending_ = snap.pending;
  flushing_ = snap.flushing;
  flush_scheduled_ = snap.flush_scheduled;
  down_ = snap.down;
  down_count_ = snap.down_count;
}

}  // namespace firefly::mac
