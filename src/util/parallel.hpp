#pragma once
//
// Deterministic host-side parallelism primitives.
//
// Everything is built on one persistent std::thread pool (no OpenMP runtime
// dependency, so ThreadSanitizer builds stay clean). The contract of every
// primitive is *schedule independence*: results are bit-identical for any
// thread count, because work is split into FIXED chunks whose partial
// results are combined in chunk order on the calling thread. Parallelism
// only changes which thread computes a chunk, never what the chunk is.
//
// The build defines CMESOLVE_THREADS_ENABLED when threading is on
// (CMESOLVE_OPENMP=ON, or CMESOLVE_TSAN=ON which drops the OpenMP pragmas
// but keeps the pool). Without it every primitive degrades to the same
// chunk loop executed inline — same chunking, same results, zero threads.
//
// Thread-count resolution (strongest first):
//   1. set_max_threads(n)            — programmatic override (tests, benches)
//   2. CMESOLVE_THREADS environment  — user override
//   3. std::thread::hardware_concurrency()
//
#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

namespace cmesolve::util {

/// Physical parallelism of this host (>= 1).
[[nodiscard]] int hardware_threads() noexcept;

/// Resolved thread budget (>= 1). In serial builds the budget still follows
/// the override — callers may use it to select code paths — but
/// parallel_tasks() executes inline regardless.
[[nodiscard]] int max_threads() noexcept;

/// Override the thread budget (0 restores automatic resolution). Clamped to
/// [0, 256]. Oversubscription is allowed on purpose: the determinism suite
/// runs 8 "threads" on any machine.
void set_max_threads(int n) noexcept;

/// True while the calling thread is executing a pool task. Nested parallel
/// constructs detect this and run inline instead of deadlocking the pool.
[[nodiscard]] bool in_parallel_region() noexcept;

/// RAII scope that forces every parallel primitive on the calling thread to
/// take its inline (serial) path, exactly as if the thread were already
/// inside a pool task. Two properties follow: the shared pool is never
/// driven from this thread (so several application-level threads — e.g. the
/// serve worker pool, src/serve/ — can each run a full solve concurrently
/// without violating parallel_tasks' one-driver rule), and every reduction
/// uses the serial chunk order, which the determinism contract guarantees is
/// bit-identical to the pooled result. Nests safely with itself and with
/// pool tasks; restores the previous state on destruction. No-op in serial
/// builds, which are always inline anyway.
class InlineRegion {
 public:
  InlineRegion() noexcept;
  ~InlineRegion();
  InlineRegion(const InlineRegion&) = delete;
  InlineRegion& operator=(const InlineRegion&) = delete;

 private:
  bool prev_ = false;
};

/// Run `task(0) .. task(ntasks-1)` on up to max_threads() threads (the
/// calling thread participates). Blocks until all tasks finish. Tasks are
/// handed out dynamically; the first exception thrown by any task is
/// rethrown on the calling thread after the barrier. May only be driven
/// from one thread at a time; nested calls execute inline.
void parallel_tasks(int ntasks, const std::function<void(int)>& task);

/// Smallest range worth splitting across threads: parallel_for's default
/// grain (a range of at most one grain runs inline), and the row count below
/// which omp_parallel_rows runs a plain loop instead of an OpenMP team.
inline constexpr std::size_t kParallelGrain = 4096;

/// Row loop of the OpenMP SpMV kernels in src/sparse/: body(r) for every r
/// in [begin, end). Inside InlineRegion or a pool task (in_parallel_region()),
/// and for a range below kParallelGrain rows, it is a plain loop on the
/// calling thread that enters no OpenMP construct at all (an `if` clause on
/// the pragma would still call into libgomp and start a one-thread team per
/// loop), so e.g. each serve worker stays one thread whatever
/// OMP_NUM_THREADS says, and a small matrix does not pay a team's fork and
/// spin-waits on every sweep. Otherwise the rows are split over an OpenMP
/// team, statically. Rows are independent, so the result is the same either
/// way. Without -fopenmp it is always the plain loop, which keeps
/// CMESOLVE_OPENMP=OFF builds free of unknown pragmas.
template <class Index, class Body>
void omp_parallel_rows(Index begin, Index end, Body&& body) {
#if defined(_OPENMP)
  if (end - begin >= static_cast<Index>(kParallelGrain) &&
      !in_parallel_region()) {
#pragma omp parallel for schedule(static)
    for (Index r = begin; r < end; ++r) body(r);
    return;
  }
#endif
  for (Index r = begin; r < end; ++r) body(r);
}

/// Chunked parallel loop: fn(begin, end) over disjoint subranges covering
/// [0, n). Use for element-wise work whose result is independent of the
/// chunking (stores to disjoint indices). `grain` is a minimum chunk size;
/// chunks may be larger when n is big, so do not rely on chunk boundaries.
template <class Fn>
void parallel_for(std::size_t n, Fn&& fn,
                  std::size_t grain = kParallelGrain) {
  if (n == 0) return;
  if (grain == 0) grain = 1;
  const int t = max_threads();
  // Cap the chunk count: element-wise loops do not need fine-grained
  // balancing, and fewer chunks means fewer std::function dispatches.
  const std::size_t min_grain =
      n / (8 * static_cast<std::size_t>(t) + 1) + 1;
  const std::size_t g = grain > min_grain ? grain : min_grain;
  const std::size_t nchunks = (n + g - 1) / g;
  if (nchunks <= 1 || t <= 1 || in_parallel_region()) {
    fn(std::size_t{0}, n);
    return;
  }
  parallel_tasks(static_cast<int>(nchunks), [&](int c) {
    const std::size_t b = static_cast<std::size_t>(c) * g;
    const std::size_t e = b + g < n ? b + g : n;
    fn(b, e);
  });
}

/// Deterministic ordered reduction. [0, n) is split into FIXED chunks of
/// `chunk` elements (independent of the thread count — this is what makes
/// floating-point results bit-identical at any parallelism), chunk_fn(begin,
/// end) reduces each chunk serially, and the partials are combined in
/// ascending chunk order on the calling thread:
///   result = combine(...combine(combine(init, p0), p1)..., pLast)
/// The serial fallback uses the identical association.
template <class T, class ChunkFn, class Combine>
[[nodiscard]] T parallel_reduce(std::size_t n, std::size_t chunk, T init,
                                ChunkFn&& chunk_fn, Combine&& combine) {
  if (n == 0) return init;
  if (chunk == 0) chunk = 1;
  const std::size_t nchunks = (n + chunk - 1) / chunk;
  T acc = std::move(init);
  if (nchunks <= 1) return combine(std::move(acc), chunk_fn(std::size_t{0}, n));
  const int t = max_threads();
  if (t <= 1 || in_parallel_region()) {
    for (std::size_t c = 0; c < nchunks; ++c) {
      const std::size_t b = c * chunk;
      const std::size_t e = b + chunk < n ? b + chunk : n;
      acc = combine(std::move(acc), chunk_fn(b, e));
    }
    return acc;
  }
  std::vector<T> partial(nchunks);
  parallel_tasks(static_cast<int>(nchunks), [&](int c) {
    const std::size_t b = static_cast<std::size_t>(c) * chunk;
    const std::size_t e = b + chunk < n ? b + chunk : n;
    partial[static_cast<std::size_t>(c)] = chunk_fn(b, e);
  });
  for (std::size_t c = 0; c < nchunks; ++c) {
    acc = combine(std::move(acc), std::move(partial[c]));
  }
  return acc;
}

}  // namespace cmesolve::util
