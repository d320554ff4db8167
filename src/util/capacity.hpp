// capacity.hpp — the heap bytes a container holds, for memory ledgers.
#pragma once

#include <cstddef>
#include <vector>

namespace firefly::util {

/// The bytes `v`'s buffer occupies: its capacity, not its size.
template <typename T, typename Alloc>
[[nodiscard]] std::size_t capacity_bytes(const std::vector<T, Alloc>& v) {
  return v.capacity() * sizeof(T);
}

}  // namespace firefly::util
