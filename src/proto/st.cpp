#include "proto/st.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace firefly::proto {

using core::Fields;
using core::TraceKind;
using core::kInvalidId;
using core::merge_key;
using core::pack;
using core::unpack;


void StEngine::on_start() {
  const std::int64_t base = 1;
  for (Device& d : devices_) {
    const std::uint32_t i = d.id;
    hot_.is_head[i] = true;  // every device heads its own singleton fragment
    hot_.fragment[i] = static_cast<std::uint16_t>(i);
    hot_.fragment_size[i] = 1;
    // Discovery beacons at random slots inside the window.
    for (std::uint32_t b = 0; b < params_.discovery_beacons; ++b) {
      const std::int64_t slot =
          base + static_cast<std::int64_t>(control_rng_.uniform_index(params_.discovery_slots));
      sim_.schedule_at(slot, [this, &d, i] {
        if (hot_.down[i]) return;
        radio_.broadcast(d.id, random_preamble(mac::RachCodec::kRach1),
                         mac::PsType::kDiscovery,
                         pack(Fields{hot_.fragment[i], d.service, 0, 0}));
      });
    }
    // Head round timer, staggered by id so RACH2 attempts de-collide.
    const std::int64_t first_round = base + params_.discovery_slots +
                                     static_cast<std::int64_t>(d.id % params_.round_slots);
    sim_.schedule_periodic(first_round, params_.round_slots, [this, &d] { round_action(d); });
    // Keep-alive sync flood: once per firing period each head floods its
    // phase down the fragment tree (the paper's RACH2 "keep-alive" codec;
    // Algorithm 1 re-runs F_F_A over RACH2 after every H_Connect round).
    const std::int64_t first_flood = base + params_.discovery_slots +
                                     static_cast<std::int64_t>(d.id % params_.period_slots);
    sim_.schedule_periodic(first_flood, params_.period_slots, [this, &d, i] {
      if (!hot_.down[i] && hot_.is_head[i]) emit_sync_flood(d);
    });
    // Keep-alive discovery: one beacon per period at a *random* slot.  This
    // is ST's structural answer to the baseline's pathology — FST beacons
    // only when it fires, so once synchronised every beacon lands in the
    // same slot and collides; ST keeps discovery traffic spread out.
    sim_.schedule_periodic(
        base + static_cast<std::int64_t>(d.id % params_.period_slots), params_.period_slots,
        [this, &d, i] {
          if (hot_.down[i]) return;
          const auto offset = static_cast<std::int64_t>(
              control_rng_.uniform_index(params_.period_slots - 1));
          sim_.schedule_in(offset, [this, &d, i] {
            if (hot_.down[i]) return;
            radio_.broadcast(d.id, random_preamble(mac::RachCodec::kRach1),
                             mac::PsType::kDiscovery,
                             pack(Fields{hot_.fragment[i], d.service, 0, 0}));
          });
        });
  }
  next_label_ = static_cast<std::uint16_t>(devices_.size());
}

void StEngine::emit_sync_flood(Device& device) {
  const std::uint32_t i = device.id;
  const auto cycle = static_cast<std::uint16_t>(
      (current_slot() / params_.period_slots) & 0xFFFF);
  device.sync_floods_seen.insert(merge_key(hot_.fragment[i], cycle));
  radio_.broadcast(device.id, random_preamble(mac::RachCodec::kRach2),
                   mac::PsType::kSyncFlood,
                   pack(Fields{hot_.fragment[i], cycle, counter_field(i), 0}));
}

void StEngine::emit_fire_broadcast(Device& device) {
  const std::uint32_t i = device.id;
  radio_.broadcast(device.id,
                   random_preamble(mac::RachCodec::kRach1),
                   mac::PsType::kSyncPulse,
                   pack(Fields{hot_.fragment[i], device.service, counter_field(i), 0}));
}

bool StEngine::left_wins(std::uint16_t left_frag, std::uint16_t left_size,
                         std::uint16_t right_frag, std::uint16_t right_size) {
  // Algorithm 1 line 12: head comes from the tree with the most nodes;
  // deterministic label tie-break keeps both endpoints consistent.
  if (left_size != right_size) return left_size > right_size;
  return left_frag < right_frag;
}

void StEngine::prune_stale_tree_edges(Device& device) {
  // Mobility repair: a tree neighbour silent for tree_stale_periods has
  // moved out of range — drop the coupling edge.  A device whose whole
  // tree neighbourhood vanished restarts as its own singleton fragment and
  // rejoins through the normal H_Connect machinery.
  const std::uint32_t i = device.id;
  const std::int64_t slot = current_slot();
  const std::int64_t stale =
      static_cast<std::int64_t>(params_.tree_stale_periods) * params_.period_slots;
  const auto& table = hot_.neighbors[i];
  std::erase_if(device.tree_neighbors, [&](std::uint32_t other) {
    const auto it = table.find(other);
    return it == table.end() || slot - it->second.last_heard_slot > stale;
  });
  if (device.tree_neighbors.empty() &&
      hot_.fragment[i] != static_cast<std::uint16_t>(device.id)) {
    hot_.fragment[i] = static_cast<std::uint16_t>(device.id);
    hot_.fragment_size[i] = 1;
    hot_.is_head[i] = true;
    device.pending_target = kInvalidId;
    device.connect_attempts = 0;
    device.last_fragment_activity_slot = slot;
    device.head_heard_slot = slot;
  }
}

std::uint16_t StEngine::fresh_label() {
  // Labels live in 16-bit fields: past 0xFFFE the cursor wraps to the first
  // label after the ids, never handing out kInvalidId (which best_outgoing
  // reads as "unknown fragment").
  if (next_label_ < devices_.size() || next_label_ == kInvalidId) {
    next_label_ = static_cast<std::uint16_t>(devices_.size());
  }
  return next_label_++;
}

void StEngine::maybe_reclaim_headless_fragment(Device& device) {
  const std::int64_t slot = current_slot();
  // A duty-cycled member only catches a fraction of the per-period flood
  // renewals, so the lease stretches by 1/awake to keep the false-expiry
  // probability comparable to the always-awake case.
  const auto lease = static_cast<std::int64_t>(
      static_cast<double>(params_.head_lease_periods) * params_.period_slots /
      params_.awake_fraction());
  if (slot - device.head_heard_slot <= lease) return;
  const std::uint32_t i = device.id;
  // Every orphaned member's lease expires around the same time (they all
  // refreshed at the head's last flood), so a deterministic claim would
  // shatter the remnant into singletons.  A Bernoulli draw per round lets
  // one early claimant win; its re-label announce rescues the rest.
  if (!control_rng_.bernoulli(0.25)) return;
  // Storm brake (service mode): a mass departure orphans many fragments in
  // the same period; the cap spreads their announce floods over several
  // periods.  Suppressed claimants simply retry next round.
  if (!relabel_permitted()) return;
  const std::uint16_t old_label = hot_.fragment[i];
  hot_.is_head[i] = true;
  hot_.fragment[i] = fresh_label();
  hot_.fragment_size[i] = 1;
  device.pending_target = kInvalidId;
  device.connect_attempts = 0;
  device.head_heard_slot = slot;
  device.last_fragment_activity_slot = slot;
  trace(TraceKind::kRelabel, device.id, hot_.fragment[i], old_label);
  // Flood the re-label through the remnant: members still carrying the old
  // label adopt the fresh one (and this device's phase) via the normal
  // merge-announce relay, then the renamed fragment re-joins through
  // H_Connect.
  device.announces_seen.insert(merge_key(hot_.fragment[i], old_label));
  emit_announce(device, hot_.fragment[i], old_label, 1);
}

void StEngine::round_action(Device& device) {
  const std::uint32_t i = device.id;
  if (hot_.down[i]) return;
  const std::int64_t slot = current_slot();
  prune_stale_tree_edges(device);
  if (!hot_.is_head[i]) {
    // Stall rule: a fragment whose head token was lost mid-merge would
    // otherwise freeze.  After long RACH2 silence, a member that can still
    // see an outgoing edge self-promotes with low probability, keeping the
    // fragment label intact (duplicate heads are harmless; a headless
    // fragment with work left is not).
    const std::int64_t stall = 6 * static_cast<std::int64_t>(params_.round_slots);
    if (slot - device.last_fragment_activity_slot > stall && has_outgoing(device) &&
        control_rng_.bernoulli(0.25)) {
      hot_.is_head[i] = true;
    } else {
      // Lease check: the stall rule cannot cover a fragment with no
      // outgoing edge (a spanning fragment whose head crashed, or a
      // partition remnant) — members then watch for proof of a live head
      // (sync floods, head tokens, merges) and reclaim the fragment when
      // it stops coming.
      maybe_reclaim_headless_fragment(device);
      return;
    }
  }
  if (device.pending_target != kInvalidId) {
    // Bounded exponential backoff: attempt k gets connect_timeout_slots<<k
    // before it is declared lost, so an unreachable peer (crashed, faded or
    // out of range) is probed at a geometrically decaying rate instead of
    // every round.
    const std::int64_t timeout =
        static_cast<std::int64_t>(params_.connect_timeout_slots)
        << std::min<std::uint32_t>(device.connect_attempts, 6U);
    if (slot - device.connect_sent_slot < timeout) return;
    device.pending_target = kInvalidId;
    ++device.connect_attempts;
    // Duty-cycled peers sleep through most requests; budget 1/awake times
    // the retries before concluding the peer is actually unreachable.
    const auto max_retries = static_cast<std::uint32_t>(
        static_cast<double>(params_.connect_max_retries) / params_.awake_fraction());
    if (device.connect_attempts > max_retries) {
      // Retry cap reached: stop hammering this neighbourhood and move
      // headship on; another vantage point may have a live outgoing edge.
      if (change_head(device)) device.connect_attempts = 0;
      return;
    }
  }
  attempt_connect(device);
}

namespace {

/// An entry's contribution to the outgoing bound: a never-heard entry
/// (last_heard_slot < 0) is fresh at any slot.
std::int64_t heard_bound_of(const core::NeighborInfo& info) {
  return info.last_heard_slot < 0 ? std::numeric_limits<std::int64_t>::max()
                                  : info.last_heard_slot;
}

}  // namespace

template <bool kFirst>
const std::uint16_t* StEngine::scan_outgoing(const Device& device) {
  // Heaviest outgoing edge: strongest fresh neighbour in another fragment.
  // Entries not refreshed for three firing periods carry stale fragment
  // labels and are skipped.
  const std::uint32_t i = device.id;
  const std::int64_t slot = current_slot();
  const std::int64_t freshness = 3 * static_cast<std::int64_t>(params_.period_slots);
  const std::uint16_t label = hot_.fragment[i];
  if (label == hot_.outgoing_label[i] && hot_.outgoing_heard_bound[i] < slot - freshness) {
    return nullptr;  // every outgoing entry is stale
  }
  const std::uint16_t* best = nullptr;
  double best_weight = -1e300;
  std::int64_t bound = std::numeric_limits<std::int64_t>::min();
  for (const auto& [other_id, info] : hot_.neighbors[i]) {
    if (info.fragment == label) continue;
    bound = std::max(bound, heard_bound_of(info));
    if (info.last_heard_slot >= 0 && slot - info.last_heard_slot > freshness) continue;
    if (info.weight_dbm > best_weight) {
      if constexpr (kFirst) return &other_id;  // the bound stays as it was
      best_weight = info.weight_dbm;
      best = &other_id;
    }
  }
  hot_.outgoing_label[i] = label;
  hot_.outgoing_heard_bound[i] = bound;
  return best;
}

const std::uint16_t* StEngine::best_outgoing(const Device& device) {
  return scan_outgoing<false>(device);
}

bool StEngine::has_outgoing(const Device& device) {
  return scan_outgoing<true>(device) != nullptr;
}

void StEngine::attempt_connect(Device& device) {
  const obs::ScopedTimer span(telemetry_, obs::SpanId::kHConnect,
                              telemetry_ != nullptr ? static_cast<double>(sim_.now()) : -1.0);
  const std::int64_t slot = current_slot();
  const std::uint16_t* best = best_outgoing(device);
  if (best == nullptr) {
    change_head(device);
    return;
  }
  device.pending_target = *best;
  device.connect_sent_slot = slot;
  device.last_fragment_activity_slot = slot;
  const std::uint32_t i = device.id;
  const auto counter = static_cast<std::uint16_t>(counter_at(i, slot));
  radio_.broadcast(device.id, random_preamble(mac::RachCodec::kRach2),
                   mac::PsType::kConnectRequest,
                   pack(Fields{*best, hot_.fragment[i], hot_.fragment_size[i], counter}));
}

bool StEngine::change_head(Device& device) {
  // Algorithm 1 line 10: no outgoing edge at this head — rotate headship
  // through the tree neighbours.  A singleton with an empty table just
  // stays head and waits for discovery to populate it, and a fragment that
  // has seen no merge activity for a while is complete: its head goes
  // quiet instead of circulating tokens forever (it resumes automatically
  // if discovery later surfaces a new outgoing edge).
  if (device.tree_neighbors.empty()) return false;
  const std::int64_t quiet = 8 * static_cast<std::int64_t>(params_.round_slots);
  if (current_slot() - device.last_fragment_activity_slot > quiet) return false;
  const std::uint32_t target =
      device.tree_neighbors[device.head_rotation % device.tree_neighbors.size()];
  ++device.head_rotation;
  hot_.is_head[device.id] = false;
  device.last_fragment_activity_slot = current_slot();
  device.head_heard_slot = current_slot();  // start the lease on the successor
  radio_.broadcast(device.id, random_preamble(mac::RachCodec::kRach2),
                   mac::PsType::kHeadToken,
                   pack(Fields{static_cast<std::uint16_t>(target),
                               hot_.fragment[device.id], 0, 0}));
  return true;
}

void StEngine::local_merge(Device& device, std::uint16_t peer_frag, std::uint16_t peer_size,
                           std::uint32_t peer_device, std::uint32_t adopted_counter) {
  const obs::ScopedTimer span(telemetry_, obs::SpanId::kMerge,
                              telemetry_ != nullptr ? static_cast<double>(sim_.now()) : -1.0);
  if (telemetry_ != nullptr) telemetry_->count("st.merges");
  const std::uint32_t i = device.id;
  const auto new_size = static_cast<std::uint16_t>(
      std::min<std::uint32_t>(0xFFFF, hot_.fragment_size[i] + peer_size));
  const bool we_win = left_wins(hot_.fragment[i], hot_.fragment_size[i], peer_frag, peer_size);
  const std::uint16_t winner = we_win ? hot_.fragment[i] : peer_frag;
  const std::uint16_t loser = we_win ? peer_frag : hot_.fragment[i];

  device.add_tree_neighbor(peer_device);
  device.last_fragment_activity_slot = current_slot();
  device.head_heard_slot = current_slot();  // a merge is proof of head activity
  device.connect_attempts = 0;              // progress: backoff restarts
  device.announces_seen.insert(merge_key(winner, loser));
  trace(TraceKind::kMerge, device.id, winner, loser);

  if (!we_win) {
    // Losing side: adopt the winner's label and phase (Algorithm 1's
    // inter-subtree synchronisation over RACH2).
    hot_.fragment[i] = winner;
    hot_.is_head[i] = false;
    device.pending_target = kInvalidId;
    adopt_counter(i, adopted_counter % params_.period_slots);
  }
  hot_.fragment_size[i] = new_size;
  emit_announce(device, winner, loser, new_size);
}

void StEngine::emit_announce(Device& device, std::uint16_t winner, std::uint16_t loser,
                             std::uint16_t new_size) {
  const auto counter = static_cast<std::uint16_t>(
      counter_at(device.id, current_slot()));
  radio_.broadcast(device.id, random_preamble(mac::RachCodec::kRach2),
                   mac::PsType::kMergeAnnounce,
                   pack(Fields{winner, loser, counter, new_size}));
}

void StEngine::handle_announce(Device& device, const mac::RxRecord& record) {
  const Fields f = unpack(record.payload);
  const std::uint32_t key = merge_key(f.a, f.b);
  if (device.announces_seen.contains(key)) return;
  device.announces_seen.insert(key);

  const std::uint32_t i = device.id;
  if (hot_.fragment[i] == f.b) {
    // My fragment lost this merge: adopt label, size and phase, and relay
    // once so the flood crosses the whole (former) fragment.
    hot_.fragment[i] = f.a;
    hot_.fragment_size[i] = f.d;
    hot_.is_head[i] = false;
    device.pending_target = kInvalidId;
    device.connect_attempts = 0;
    device.last_fragment_activity_slot = current_slot();
    device.head_heard_slot = current_slot();
    adopt_counter(i, (f.c + elapsed_slots(record)) % params_.period_slots);
    emit_announce(device, f.a, f.b, f.d);
  } else if (hot_.fragment[i] == f.a) {
    // My fragment won: refresh the size estimate.
    hot_.fragment_size[i] = std::max(hot_.fragment_size[i], f.d);
    device.last_fragment_activity_slot = current_slot();
  }
}

void StEngine::deliver_batched(const mac::RxBatch& batch) {
  sweep_batch(batch, [this](const mac::RxRecord& r, const core::NeighborInfo& sender) {
    // Keep the outgoing bound an upper bound: the sender's entry was just
    // heard, and counts when its fragment is not the bound's label.
    const std::uint32_t i = r.rx_index;
    if (sender.fragment != hot_.outgoing_label[i]) {
      hot_.outgoing_heard_bound[i] =
          std::max(hot_.outgoing_heard_bound[i], heard_bound_of(sender));
    }
    on_record(r);
  });
}

void StEngine::on_record(const mac::RxRecord& record) {
  const std::uint32_t i = record.rx_index;
  Device& device = devices_[i];
  const Fields f = unpack(record.payload);
  switch (record.type) {
    case mac::PsType::kDiscovery:
      break;  // neighbour table already updated by the sweep

    case mac::PsType::kSyncPulse:
      // Tree-restricted coupling: only pulses from tree neighbours adjust
      // the oscillator (the whole point of the spanning-tree topology).
      if (device.has_tree_neighbor(record.sender)) {
        apply_pulse_coupling(record);
      }
      break;

    case mac::PsType::kConnectRequest: {
      if (f.a != device.id) break;          // addressed to someone else
      if (f.b == hot_.fragment[i]) break;        // stale: already same fragment
      device.last_fragment_activity_slot = current_slot();
      // Algorithm 2: answer over RACH2, then both endpoints merge.
      const auto my_counter = static_cast<std::uint16_t>(
          counter_at(i, current_slot()));
      radio_.broadcast(device.id,
                       random_preamble(mac::RachCodec::kRach2),
                       mac::PsType::kConnectAccept,
                       pack(Fields{static_cast<std::uint16_t>(record.sender),
                                   hot_.fragment[i], hot_.fragment_size[i], my_counter}));
      const std::uint32_t adopted = (f.d + elapsed_slots(record)) % params_.period_slots;
      local_merge(device, f.b, f.c, record.sender, adopted);
      break;
    }

    case mac::PsType::kConnectAccept: {
      if (f.a != device.id) break;
      if (f.b == hot_.fragment[i]) break;  // duplicate / already merged
      device.pending_target = kInvalidId;
      device.connect_attempts = 0;
      device.last_fragment_activity_slot = current_slot();
      const std::uint32_t adopted = (f.d + elapsed_slots(record)) % params_.period_slots;
      local_merge(device, f.b, f.c, record.sender, adopted);
      break;
    }

    case mac::PsType::kMergeAnnounce:
      handle_announce(device, record);
      break;

    case mac::PsType::kHeadToken:
      // Any member overhearing a token for its fragment learns a live head
      // existed a moment ago — that renews the lease.
      if (f.b == hot_.fragment[i]) device.head_heard_slot = current_slot();
      if (f.a == device.id && f.b == hot_.fragment[i]) {
        hot_.is_head[i] = true;
        device.connect_attempts = 0;
        device.last_fragment_activity_slot = current_slot();
        trace(TraceKind::kHeadChange, device.id, hot_.fragment[i]);
      }
      break;

    case mac::PsType::kSyncFlood: {
      if (f.a != hot_.fragment[i]) break;  // another fragment's keep-alive
      device.head_heard_slot = current_slot();  // lease renewed (even if duplicate)
      const std::uint32_t key = merge_key(f.a, f.b);
      if (device.sync_floods_seen.contains(key)) break;
      device.sync_floods_seen.insert(key);
      // Adopt the head's phase exactly (delay-compensated) and relay once
      // with a re-stamped counter so the flood covers the whole tree.
      adopt_counter(i, (f.c + elapsed_slots(record)) % params_.period_slots);
      radio_.broadcast(device.id,
                       random_preamble(mac::RachCodec::kRach2),
                       mac::PsType::kSyncFlood,
                       pack(Fields{f.a, f.b, counter_field(i), 0}));
      break;
    }
  }
}

void StEngine::on_recover(Device& device) {
  // Everything volatile is gone; the device rejoins as a brand-new
  // singleton.  The label must be fresh: its old id-label may still name a
  // live fragment spanning its neighbours, and reusing it would make the
  // rejoin edge invisible to best_outgoing (same label = no outgoing edge).
  const std::int64_t slot = current_slot();
  hot_.fragment[device.id] = fresh_label();
  hot_.fragment_size[device.id] = 1;
  hot_.is_head[device.id] = true;
  device.tree_neighbors.clear();
  device.announces_seen.clear();
  device.sync_floods_seen.clear();
  device.head_rotation = 0;
  device.pending_target = kInvalidId;
  device.connect_sent_slot = -1;
  device.connect_attempts = 0;
  device.last_fragment_activity_slot = slot;
  device.head_heard_slot = slot;
}

bool StEngine::protocol_complete() const {
  // One fragment must span every *live* device; crashed radios are not part
  // of the network the algorithm can span.
  std::uint16_t label = 0;
  bool found = false;
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    if (hot_.down[i]) continue;
    if (!found) {
      label = hot_.fragment[i];
      found = true;
    } else if (hot_.fragment[i] != label) {
      return false;
    }
  }
  return found;
}

void StEngine::fill_protocol_metrics(RunMetrics& metrics) const {
  // Distinct fragment labels remaining.
  std::vector<std::uint16_t> labels;
  labels.reserve(devices_.size());
  for (std::uint32_t i = 0; i < devices_.size(); ++i) {
    if (!hot_.down[i]) labels.push_back(hot_.fragment[i]);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
  metrics.final_fragments = static_cast<std::uint32_t>(labels.size());

  // Tree edges: unordered pairs listed by at least one endpoint; weight is
  // the strongest recorded direction (PS strength, the paper's edge weight).
  std::uint32_t edges = 0;
  std::uint32_t same_service_edges = 0;
  double weight_sum = 0.0;
  for (const Device& d : devices_) {
    if (hot_.down[d.id]) continue;
    for (const std::uint32_t other : d.tree_neighbors) {
      if (hot_.down[other]) continue;  // edge to a crashed radio is gone
      if (other < d.id && devices_[other].has_tree_neighbor(d.id)) continue;  // counted once
      ++edges;
      if (devices_[other].service == d.service) ++same_service_edges;
      double w = -200.0;
      const auto& table = hot_.neighbors[d.id];
      const auto it = table.find(other);
      if (it != table.end()) w = it->second.weight_dbm;
      const auto& other_table = hot_.neighbors[other];
      const auto it2 = other_table.find(d.id);
      if (it2 != other_table.end()) {
        const double w2 = it2->second.weight_dbm;  // by value: the field is packed
        w = std::max(w, w2);
      }
      weight_sum += w;
    }
  }
  metrics.tree_edges = edges;
  metrics.tree_weight_dbm = weight_sum;
  metrics.tree_service_affinity =
      edges > 0 ? static_cast<double>(same_service_edges) / edges : 0.0;
}

}  // namespace firefly::proto
