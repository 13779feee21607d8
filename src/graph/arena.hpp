// EpochArena: reusable bump allocation for per-epoch scratch.
//
// The epoch pipeline re-runs the same shaped computations every boundary —
// Johnson potentials, reweighted CSR arrays, per-source distance arrays,
// Howard policy/value vectors.  Allocating those from the heap each epoch costs
// more than some of the arithmetic they hold; the arena instead carves them
// out of a few large chunks with a pointer bump and recycles the chunks
// wholesale on reset().
//
// Rules of use (documented in docs/PERF.md):
//   * alloc<T>() returns UNINITIALIZED storage; every caller fills it.
//     T must be trivially destructible — nothing is ever destroyed.
//   * reset() invalidates every span handed out since the last reset but
//     retains the chunk capacity, so a steady-state epoch allocates nothing.
//   * One arena serves ONE thread at a time.  Parallel pipeline stages give
//     each worker its own arena (see core/shifts.cpp).
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

namespace cs {

class EpochArena {
 public:
  EpochArena() = default;
  EpochArena(const EpochArena&) = delete;
  EpochArena& operator=(const EpochArena&) = delete;
  EpochArena(EpochArena&&) = default;
  EpochArena& operator=(EpochArena&&) = default;

  /// Uninitialized storage for `count` objects of T.  The span stays valid
  /// until the next reset().  count == 0 yields an empty span.
  template <typename T>
  std::span<T> alloc(std::size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "arena storage is never destroyed");
    if (count == 0) return {};
    void* p = raw(count * sizeof(T), alignof(T));
    return {static_cast<T*>(p), count};
  }

  /// Storage for `count` objects, each initialized to `value`.
  template <typename T>
  std::span<T> alloc_fill(std::size_t count, const T& value) {
    std::span<T> s = alloc<T>(count);
    for (T& x : s) x = value;
    return s;
  }

  /// Recycles every allocation since the last reset; capacity is retained,
  /// so a steady-state caller stops touching the heap entirely.
  void reset();

  /// Total bytes reserved across chunks (monitoring/tests).
  std::size_t bytes_reserved() const;

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t capacity{0};
  };

  void* raw(std::size_t bytes, std::size_t align);

  std::vector<Chunk> chunks_;
  std::size_t active_{0};  // chunk currently being bumped
  std::size_t offset_{0};  // bump offset within chunks_[active_]
};

}  // namespace cs
