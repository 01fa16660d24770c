#include "lineage/node_arena.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <stdexcept>

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace tpset {

namespace {

// The range's start is rounded up to a huge-page boundary, so the kernel
// can back every aligned 2 MiB stretch past the first with one huge page.
constexpr std::size_t kHugePageBytes = std::size_t{2} << 20;

// Ids run from 0 to kNullLineage - 1.
constexpr std::size_t kMaxNodes = std::size_t{kNullLineage};

}  // namespace

NodeArena::NodeArena() {
  for (std::size_t bytes = kReserveBytes;; bytes /= 2) {
    const std::size_t map_bytes = bytes + kHugePageBytes;
    void* map = mmap(nullptr, map_bytes, PROT_NONE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map != MAP_FAILED) {
      map_ = map;
      map_bytes_ = map_bytes;
      const std::uintptr_t at = reinterpret_cast<std::uintptr_t>(map);
      const std::uintptr_t aligned =
          (at + kHugePageBytes - 1) & ~(std::uintptr_t{kHugePageBytes} - 1);
      nodes_ = reinterpret_cast<LineageNode*>(aligned);
      reserved_ = bytes / sizeof(LineageNode);
#if defined(MADV_HUGEPAGE)
      // Advice only: without transparent huge pages the range keeps 4 KiB
      // pages, and growth still copies nothing.
      madvise(nodes_, bytes, MADV_HUGEPAGE);
#endif
      return;
    }
    if (bytes <= kCommitFloorBytes) throw std::bad_alloc();
  }
}

NodeArena::~NodeArena() {
#if defined(__SANITIZE_ADDRESS__)
  ASAN_UNPOISON_MEMORY_REGION(nodes_, committed_bytes());
#endif
  munmap(map_, map_bytes_);
}

void NodeArena::Commit(std::size_t n) {
  if (n > kMaxNodes) {
    throw std::length_error("lineage arena: the 32-bit id space is exhausted");
  }
  if (n > reserved_) throw std::bad_alloc();
  std::size_t bytes = std::max(committed_bytes(), kCommitFloorBytes);
  while (bytes < n * sizeof(LineageNode)) bytes *= 2;
  bytes = std::min(bytes, reserved_bytes());
  char* from = reinterpret_cast<char*>(nodes_) + committed_bytes();
  const std::size_t grow = bytes - committed_bytes();
  if (mprotect(from, grow, PROT_READ | PROT_WRITE) != 0) throw std::bad_alloc();
#if defined(__SANITIZE_ADDRESS__)
  ASAN_POISON_MEMORY_REGION(from, grow);
#endif
  committed_ = bytes / sizeof(LineageNode);
}

#if defined(__SANITIZE_ADDRESS__)
void NodeArena::Expose(std::size_t from, std::size_t to) {
  if (to > from) {
    ASAN_UNPOISON_MEMORY_REGION(nodes_ + from, (to - from) * sizeof(LineageNode));
  }
}
#endif

}  // namespace tpset
