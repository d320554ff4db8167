// neighbor_table.hpp — the per-device neighbour table.
//
// `NeighborTable` is a flat open-addressed hash map from neighbour id to
// NeighborInfo, tuned for the simulator's hottest loop: update_neighbor
// runs once per decoded PS (millions of times per large trial), and the
// std::unordered_map it replaces dominated the wall-clock profile with
// pointer-chasing bucket walks.  Key and value live together in one
// power-of-two slot array, so a lookup is a single probe into a single
// allocation — one cache line touched for the common hit-on-first-probe
// case (an 18 B slot straddles two lines at eight of every 32 positions:
// 32 slots fill nine lines, and a slot starting past byte 46 of its line
// runs into the next).  A slot is a packed 16-bit key and 16 B of
// NeighborInfo, so every key sits at an even offset and stays 2-aligned.
// The protocols never erase individual neighbours — staleness is
// expressed through last_heard_slot — so the table only needs
// insert-or-find, lookup, clear and iteration, and probing never meets a
// tombstone.  Iteration visits slots in index order, which is a pure
// function of the insertion sequence (deterministic deliveries ⇒
// deterministic iteration).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/wire.hpp"
#include "util/capacity.hpp"

namespace firefly::core {

/// What a device knows about a neighbour, learnt entirely from PSs.  Fields
/// run widest first into 16 B; the struct is packed (alignment 1) so that a
/// table slot (2 B key, this) is 18 B with no pad.  `last_heard_slot` is
/// 32-bit (the engine rejects a horizon past INT32_MAX slots before it
/// starts); −1 marks an entry never heard.  `weight_dbm` sits below its
/// natural alignment in three of every four slots, `last_heard_slot` in
/// every other one: read them by value, and never bind a reference to them
/// (`std::max`, `emplace_back`, gtest's `EXPECT_*` all take one), which is
/// undefined.
struct [[gnu::packed]] NeighborInfo {
  double weight_dbm{-200.0};        ///< EWMA of received PS power (the edge weight)
  std::int32_t last_heard_slot{-1};
  std::uint16_t fragment{kInvalidId};
  std::uint16_t service{0};
};

class NeighborTable {
 public:
  /// Slot layout mirrors std::pair so call sites keep the map idioms:
  /// `it->second`, `for (const auto& [id, info] : table)`.  Packed: the
  /// 16-bit key holds any engine id (the engine rejects N ≥ 0xFFFF).
  struct [[gnu::packed]] value_type {
    std::uint16_t first{kEmptyKey};
    NeighborInfo second{};
  };

  template <typename V>
  class basic_iterator {
   public:
    basic_iterator(V* p, V* end) : p_(p), end_(end) {
      while (p_ != end_ && p_->first == kEmptyKey) ++p_;
    }
    [[nodiscard]] V& operator*() const { return *p_; }
    [[nodiscard]] V* operator->() const { return p_; }
    basic_iterator& operator++() {
      ++p_;
      while (p_ != end_ && p_->first == kEmptyKey) ++p_;
      return *this;
    }
    [[nodiscard]] bool operator==(const basic_iterator& o) const { return p_ == o.p_; }
    [[nodiscard]] bool operator!=(const basic_iterator& o) const { return p_ != o.p_; }

   private:
    V* p_;
    V* end_;
  };
  using iterator = basic_iterator<value_type>;
  using const_iterator = basic_iterator<const value_type>;

  /// Find-or-insert.  References stay valid until the next insertion.
  /// Throws std::out_of_range on an id the 16-bit key cannot hold.
  [[nodiscard]] NeighborInfo& operator[](std::uint32_t id) {
    if (id >= kEmptyKey) throw std::out_of_range("NeighborTable: id past 16 bits");
    if (slots_.empty()) slots_.assign(kMinSlots, value_type{});
    std::size_t slot = probe(id);
    if (slots_[slot].first != id) {
      if ((size_ + 1) * 4 > slots_.size() * 3) {  // load factor 3/4
        rehash(slots_.size() * 2);
        slot = probe(id);
      }
      slots_[slot] = value_type{static_cast<std::uint16_t>(id), NeighborInfo{}};
      ++size_;
    }
    return slots_[slot].second;
  }

  /// Pull `id`'s probe chain into cache ahead of an operator[] call.
  /// Purely a hint — no table state changes, any id is safe.  The delivery
  /// loop issues these one receiver bucket ahead, which hides the random
  /// DRAM access update_neighbor's probe would otherwise stall on (the
  /// slot arrays of a large population far exceed the last-level cache).
  /// Two lines are warmed: the head's and the next 64 B line (64 B past the
  /// head's first byte), since a head slot starting past byte 46 straddles
  /// into it and at a load factor of up to 3/4 the probe often runs on into
  /// it.  For a head in the last three slots that address lies past the
  /// array, where a prefetch is still harmless (it never faults); the chain
  /// wraps to slot 0 unwarmed.  Always inlined: at -O2 GCC's inliner
  /// otherwise drops the call from the sweep, and with it both prefetches.
  [[gnu::always_inline]] void prefetch(std::uint32_t id) const {
#if defined(__GNUC__) || defined(__clang__)
    if (slots_.empty()) return;
    const std::size_t mask = slots_.size() - 1;
    const std::size_t slot =
        static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    const auto head = reinterpret_cast<std::uintptr_t>(slots_.data() + slot);
    __builtin_prefetch(reinterpret_cast<const void*>(head), 1);
    __builtin_prefetch(reinterpret_cast<const void*>(head + 64), 1);
#else
    (void)id;
#endif
  }

  [[nodiscard]] const_iterator find(std::uint32_t id) const {
    const std::size_t slot = slot_of(id);
    return slot == kNotFound ? end() : const_iterator(slots_.data() + slot, slots_end());
  }
  [[nodiscard]] bool contains(std::uint32_t id) const { return slot_of(id) != kNotFound; }
  [[nodiscard]] const NeighborInfo& at(std::uint32_t id) const {
    const std::size_t slot = slot_of(id);
    if (slot == kNotFound) throw std::out_of_range("NeighborTable::at");
    return slots_[slot].second;
  }

  /// Pre-size for up to `max_entries` keys so no future insertion rehashes.
  /// Growth-only, and the slot count stays the same power-of-two sequence a
  /// demand-driven table would reach — only the *timing* of the growth
  /// moves.  Service mode calls this with the domain bound (n−1 possible
  /// neighbours) so a soak's steady state never sets a new size record.
  void reserve(std::size_t max_entries) {
    std::size_t want = kMinSlots;
    while (max_entries * 4 > want * 3) want *= 2;  // mirrors the insert check
    if (slots_.empty()) {
      slots_.assign(want, value_type{});
    } else if (want > slots_.size()) {
      rehash(want);
    }
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  /// Heap bytes of the slot array.
  [[nodiscard]] std::size_t capacity_bytes() const { return util::capacity_bytes(slots_); }
  /// Empties the table but keeps the slot array: a cleared table belongs to
  /// a recovering device and refills within a few periods, so retention
  /// makes crash/recover churn rehash- and allocation-free (the service
  /// heap gate measures this).  Peak size is bounded by the n−1 possible
  /// neighbours, so what is retained is bounded too.
  void clear() {
    std::fill(slots_.begin(), slots_.end(), value_type{});
    size_ = 0;
  }

  [[nodiscard]] iterator begin() { return {slots_.data(), slots_end()}; }
  [[nodiscard]] iterator end() { return {slots_end(), slots_end()}; }
  [[nodiscard]] const_iterator begin() const { return {slots_.data(), slots_end()}; }
  [[nodiscard]] const_iterator end() const { return {slots_end(), slots_end()}; }

 private:
  /// Reserved key marking an empty slot (= kInvalidId); no simulated device
  /// carries it (engine ids are dense indices below 0xFFFF).
  static constexpr std::uint16_t kEmptyKey = kInvalidId;
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);
  static constexpr std::size_t kMinSlots = 16;

  [[nodiscard]] value_type* slots_end() { return slots_.data() + slots_.size(); }
  [[nodiscard]] const value_type* slots_end() const { return slots_.data() + slots_.size(); }

  /// Slot holding `id`, or the first empty slot on its probe chain.
  [[nodiscard]] std::size_t probe(std::uint32_t id) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot =
        static_cast<std::size_t>((id * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (slots_[slot].first != kEmptyKey && slots_[slot].first != id) {
      slot = (slot + 1) & mask;
    }
    return slot;
  }

  [[nodiscard]] std::size_t slot_of(std::uint32_t id) const {
    if (slots_.empty() || id >= kEmptyKey) return kNotFound;
    const std::size_t slot = probe(id);
    return slots_[slot].first == id ? slot : kNotFound;
  }

  void rehash(std::size_t new_slots) {
    std::vector<value_type> old = std::move(slots_);
    slots_.assign(new_slots, value_type{});
    for (value_type& v : old) {
      if (v.first != kEmptyKey) slots_[probe(v.first)] = v;
    }
  }

  std::vector<value_type> slots_;  ///< open-addressed, key + value inline
  std::size_t size_ = 0;
};

}  // namespace firefly::core
