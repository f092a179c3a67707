// Per-host-thread free lists of small fixed-size blocks, for objects a
// simulation makes and drops at a high rate (fiber tasks, collective
// request states). A freed block goes onto the freeing thread's list of
// its size class and the next allocation of that class on that thread
// takes it back, so steady state allocates nothing. The lists belong to
// the thread, not to any simulation: a stale handle may outlive the
// engine that made its object. A list never holds more blocks than its
// class had live at once on that thread; they are freed when the thread
// exits.
#pragma once

#include <cstddef>
#include <new>

namespace rcc::common {

// Blocks up to kPoolMaxBytes come from the free lists, larger ones from
// ::operator new.
inline constexpr size_t kPoolMaxBytes = 1024;

void* PoolAllocate(size_t bytes);
void PoolFree(void* p, size_t bytes);

// Stateless allocator over PoolAllocate, for std::allocate_shared.
template <typename T>
struct PoolAllocator {
  using value_type = T;
  static_assert(alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__);

  PoolAllocator() = default;
  template <typename U>
  PoolAllocator(const PoolAllocator<U>&) {}

  T* allocate(size_t n) {
    return static_cast<T*>(PoolAllocate(n * sizeof(T)));
  }
  void deallocate(T* p, size_t n) { PoolFree(p, n * sizeof(T)); }

  template <typename U>
  bool operator==(const PoolAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const PoolAllocator<U>&) const {
    return false;
  }
};

}  // namespace rcc::common
