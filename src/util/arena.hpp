// arena.hpp — trial-scoped allocators.
//
// Two shapes live here:
//   * `SlabArena<T>` — chunked slab with a freelist.  Fixed-layout records
//     (the slot calendar's event records) live in chunks of 256 so addresses
//     are stable, indices are dense 32-bit handles, and a release/allocate
//     cycle never touches the system heap after the first use of a slot.
//     Destructors are not run on clear(); element types must be reusable by
//     assignment (the calendar re-initialises every field on allocate).
//   * `RegionArena` — one grow-never byte region that typed arrays are
//     carved out of front to back.  The device core's hot state
//     (core/device_soa.hpp) lives in one region per trial, so every flat
//     array is contiguous, the whole hot state snapshots/restores as a
//     single memcpy, and a trial performs exactly one allocation for it.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "util/capacity.hpp"

namespace firefly::util {

/// A single contiguous byte region carved into typed arrays.  `reset`
/// allocates (and zero-fills) the block once; `carve<T>(count)` hands out
/// aligned sub-arrays front to back.  Only trivially copyable element types
/// are allowed: the region's bytes ARE the state, so a snapshot is
/// `memcpy(dst, data(), used())` and a restore is the reverse.
class RegionArena {
 public:
  /// Discard any previous block and allocate a fresh zero-filled region of
  /// `bytes` capacity.  Pointers carved before reset are invalidated.
  void reset(std::size_t bytes) {
    block_ = std::make_unique<std::byte[]>(bytes);
    std::memset(block_.get(), 0, bytes);
    size_ = bytes;
    used_ = 0;
  }

  /// Carve the next `count` elements of T, aligned to alignof(T).  The
  /// returned array is zero-initialised (reset zero-fills the block).
  template <typename T>
  [[nodiscard]] T* carve(std::size_t count) {
    static_assert(std::is_trivially_copyable_v<T>,
                  "RegionArena state must memcpy-snapshot");
    const std::size_t align = alignof(T);
    used_ = (used_ + align - 1) & ~(align - 1);
    assert(used_ + sizeof(T) * count <= size_ && "RegionArena over-carved");
    T* out = reinterpret_cast<T*>(block_.get() + used_);
    used_ += sizeof(T) * count;
    return out;
  }

  [[nodiscard]] std::byte* data() { return block_.get(); }
  /// Bytes allocated by `reset`.
  [[nodiscard]] std::size_t capacity() const { return size_; }
  /// Bytes actually carved — the span a snapshot must copy.
  [[nodiscard]] std::size_t used() const { return used_; }

 private:
  std::unique_ptr<std::byte[]> block_;
  std::size_t size_ = 0;
  std::size_t used_ = 0;
};

template <typename T>
class SlabArena {
 public:
  static constexpr std::uint32_t kNil = 0xFFFFFFFFu;
  static constexpr std::size_t kChunkSize = 256;

  /// Take a free slot (growing by one chunk when exhausted).  The slot's
  /// object keeps whatever state it last had; the caller re-initialises.
  [[nodiscard]] std::uint32_t allocate() {
    if (free_head_ == kNil) grow();
    const std::uint32_t idx = free_head_;
    free_head_ = free_link_[idx];
    ++live_;
    if (live_ > high_water_) high_water_ = live_;
    return idx;
  }

  /// Return a slot to the freelist.  The object is not destroyed.
  void release(std::uint32_t idx) {
    assert(idx < free_link_.size());
    free_link_[idx] = free_head_;
    free_head_ = idx;
    assert(live_ > 0);
    --live_;
  }

  [[nodiscard]] T& operator[](std::uint32_t idx) {
    assert(idx < capacity());
    return chunks_[idx / kChunkSize][idx % kChunkSize];
  }
  [[nodiscard]] const T& operator[](std::uint32_t idx) const {
    assert(idx < capacity());
    return chunks_[idx / kChunkSize][idx % kChunkSize];
  }

  [[nodiscard]] std::size_t capacity() const { return chunks_.size() * kChunkSize; }
  [[nodiscard]] std::size_t live() const { return live_; }
  /// Lifetime maximum of live(): the bounded-memory probe.  A steady-state
  /// soak must see this stop moving after warm-up — capacity never shrinks,
  /// so a flat high-water mark means the arena stopped allocating.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }
  [[nodiscard]] bool in_range(std::uint64_t idx) const { return idx < capacity(); }
  /// Heap bytes: the chunks, their pointer table and the freelist links.
  [[nodiscard]] std::size_t capacity_bytes() const {
    return capacity() * sizeof(T) + util::capacity_bytes(chunks_) +
           util::capacity_bytes(free_link_);
  }

  /// Overwrite this arena with a slot-exact copy of `src`: same chunk count,
  /// same freelist chain, every slot copied through `copy_slot(dst, src)`.
  /// Slot indices (and whatever generation counters the element type keeps)
  /// are preserved, so handles minted against `src` stay valid against the
  /// copy — this is what lets a restored scheduler keep the EventIds that
  /// devices still hold.  The high-water mark keeps its own maximum: a
  /// rollback must not hide growth from the memory probe.
  template <typename CopySlot>
  void copy_from(const SlabArena& src, CopySlot&& copy_slot) {
    while (chunks_.size() < src.chunks_.size())
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    chunks_.resize(src.chunks_.size());
    const auto n = static_cast<std::uint32_t>(src.capacity());
    for (std::uint32_t i = 0; i < n; ++i) copy_slot((*this)[i], src[i]);
    free_link_ = src.free_link_;
    free_head_ = src.free_head_;
    live_ = src.live_;
    if (src.high_water_ > high_water_) high_water_ = src.high_water_;
  }

 private:
  void grow() {
    const auto base = static_cast<std::uint32_t>(capacity());
    chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    free_link_.resize(base + kChunkSize);
    // Thread the new chunk onto the freelist in ascending order.
    for (std::uint32_t i = 0; i < kChunkSize; ++i) {
      free_link_[base + i] = base + i + 1;
    }
    free_link_[base + kChunkSize - 1] = free_head_;
    free_head_ = base;
  }

  std::vector<std::unique_ptr<T[]>> chunks_;
  std::vector<std::uint32_t> free_link_;  // per-slot next-free index
  std::uint32_t free_head_ = kNil;
  std::size_t live_ = 0;
  std::size_t high_water_ = 0;
};

}  // namespace firefly::util
