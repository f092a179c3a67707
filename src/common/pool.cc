#include "common/pool.h"

// No-ops unless built with AddressSanitizer, under which a pooled block
// stays poisoned while it is free, so a use after free is still caught.
#include <sanitizer/asan_interface.h>

namespace rcc::common {

namespace {

constexpr size_t kGranule = 64;  // size-class width
constexpr size_t kClasses = kPoolMaxBytes / kGranule;

struct FreeBlock {
  FreeBlock* next;
};

// Set when this thread's lists are gone: a block freed later (by a
// thread-exit or static destructor that runs after them) goes straight
// back to the heap. Trivially destructible, so it stays readable.
thread_local bool tls_pool_gone = false;

struct FreeLists {
  FreeBlock* head[kClasses] = {};
  FreeLists() = default;
  FreeLists(const FreeLists&) = delete;
  FreeLists& operator=(const FreeLists&) = delete;
  ~FreeLists() {
    for (size_t c = 0; c < kClasses; ++c) {
      while (FreeBlock* b = head[c]) {
        ASAN_UNPOISON_MEMORY_REGION(b, (c + 1) * kGranule);
        head[c] = b->next;
        ::operator delete(b);
      }
    }
    tls_pool_gone = true;
  }
};
thread_local FreeLists tls_pool;

// The class of a `bytes`-byte block; kClasses for one too large to pool.
size_t ClassOf(size_t bytes) {
  if (bytes == 0 || bytes > kPoolMaxBytes || tls_pool_gone) return kClasses;
  return (bytes - 1) / kGranule;
}

}  // namespace

void* PoolAllocate(size_t bytes) {
  const size_t c = ClassOf(bytes);
  if (c == kClasses) return ::operator new(bytes);
  FreeLists& lists = tls_pool;
  if (FreeBlock* b = lists.head[c]) {
    ASAN_UNPOISON_MEMORY_REGION(b, (c + 1) * kGranule);
    lists.head[c] = b->next;
    return b;
  }
  return ::operator new((c + 1) * kGranule);
}

void PoolFree(void* p, size_t bytes) {
  const size_t c = ClassOf(bytes);
  if (c == kClasses) {
    ::operator delete(p);
    return;
  }
  FreeLists& lists = tls_pool;
  auto* b = static_cast<FreeBlock*>(p);
  b->next = lists.head[c];
  lists.head[c] = b;
  ASAN_POISON_MEMORY_REGION(b, (c + 1) * kGranule);
}

}  // namespace rcc::common
