// flat_set.hpp — open-addressed set of 32-bit keys.
//
// The ST engine deduplicates merge announcements and sync floods once per
// decoded control PS, so the set operations sit on the simulator's hot
// path.  std::unordered_set pays a heap node per element and a bucket walk
// per lookup; this replacement is a single power-of-two array of 32-bit
// slots with linear probing.  0xFFFFFFFF marks an empty slot; the one key
// equal to it is held by a side flag instead, so every 32-bit key stays
// storable.  Only what the engine needs: insert, contains, clear — no
// erase, so probing never meets a tombstone.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/capacity.hpp"

namespace firefly::util {

class FlatU32Set {
 public:
  /// Insert `key`; returns true when it was not already present.
  bool insert(std::uint32_t key) {
    if (key == kEmpty) {
      if (has_empty_key_) return false;
      has_empty_key_ = true;
      return true;
    }
    if (slots_.empty()) slots_.assign(kMinSlots, kEmpty);
    std::size_t slot = probe(key);
    if (slots_[slot] == key) return false;
    if ((std::size_t{size_} + 1) * 4 > slots_.size() * 3) {  // load factor 3/4
      rehash(slots_.size() * 2);
      slot = probe(key);
    }
    slots_[slot] = key;
    ++size_;
    return true;
  }

  [[nodiscard]] bool contains(std::uint32_t key) const {
    if (key == kEmpty) return has_empty_key_;
    return !slots_.empty() && slots_[probe(key)] == key;
  }

  [[nodiscard]] std::size_t size() const { return size_ + std::size_t{has_empty_key_}; }
  /// Heap bytes of the slot array.
  [[nodiscard]] std::size_t capacity_bytes() const { return util::capacity_bytes(slots_); }

  /// Empties the set but keeps the slot array (cleared sets refill soon).
  void clear() {
    std::fill(slots_.begin(), slots_.end(), kEmpty);
    size_ = 0;
    has_empty_key_ = false;
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFU;
  static constexpr std::size_t kMinSlots = 16;

  /// Slot holding `key`, or the first empty slot on its probe chain.
  [[nodiscard]] std::size_t probe(std::uint32_t key) const {
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot =
        static_cast<std::size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (slots_[slot] != kEmpty && slots_[slot] != key) slot = (slot + 1) & mask;
    return slot;
  }

  void rehash(std::size_t new_slots) {
    std::vector<std::uint32_t> old = std::move(slots_);
    slots_.assign(new_slots, kEmpty);
    for (const std::uint32_t v : old) {
      if (v != kEmpty) slots_[probe(v)] = v;
    }
  }

  std::vector<std::uint32_t> slots_;
  // Keys in slots_, and whether 0xFFFFFFFF is present.  Both fit in 8 B, so
  // the set is 32 B (core::Device holds two).
  std::uint32_t size_ = 0;
  bool has_empty_key_ = false;
};

}  // namespace firefly::util
