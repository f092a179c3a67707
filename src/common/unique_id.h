// Process-wide unique ids. The registries that outlive one simulation
// (mpi's communicator-group cache, ulfm's rendezvous registries) key on
// them, so two simulations, even on different host threads, never draw
// the same value.
#pragma once

#include <atomic>
#include <cstdint>

namespace rcc::common {

inline uint64_t NextUniqueId() {
  static std::atomic<uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rcc::common
