// device.hpp — per-UE cold protocol state.
//
// A `Device` is passive data; the protocol engines (fst.cpp / st.cpp) drive
// all transitions so the state machine logic is in one readable place per
// protocol.  It holds the COLD state only: identity, position, service
// interest and the ST tree/merge bookkeeping.  The hot state the per-slot
// sweeps touch — oscillator slots and fire event, fault flags, drift, the ST
// fragment label, DESYNC phase memory and the neighbour table — lives in
// core::DeviceHot's flat arrays (device_soa.hpp), indexed by `id`.
#pragma once

#include <cstdint>
#include <vector>

#include "core/wire.hpp"
#include "geo/point.hpp"
#include "util/flat_set.hpp"

namespace firefly::core {

struct Device {
  std::uint32_t id{0};
  geo::Vec2 position{};
  std::uint16_t service{0};

  // --- ST fragment state (the label, size and headship are hot) ---
  std::vector<std::uint32_t> tree_neighbors;
  util::FlatU32Set announces_seen;    ///< merge_key dedup
  util::FlatU32Set sync_floods_seen;  ///< (fragment, cycle) dedup
  std::size_t head_rotation{0};         ///< Change_head round-robin cursor
  std::uint32_t pending_target{kInvalidId};
  std::int64_t connect_sent_slot{-1};
  std::uint32_t connect_attempts{0};    ///< timed-out H_Connects this head stint
  std::int64_t last_fragment_activity_slot{0};  ///< stall detection for headless fragments
  std::int64_t head_heard_slot{0};      ///< lease: last proof a live head serves my fragment

  [[nodiscard]] bool has_tree_neighbor(std::uint32_t other) const;
  void add_tree_neighbor(std::uint32_t other);
};

}  // namespace firefly::core
