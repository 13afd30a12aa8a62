// Width-templated kernel bodies for the explicit SIMD layer. This header
// is included — once per ISA — by the simd_kernels_<isa>.cpp translation
// units, which define before inclusion:
//
//   CMESOLVE_SIMD_TU_NS   token: the per-ISA namespace (scalar, sse2, ...)
//   CMESOLVE_SIMD_TU_ISA  token: the Isa enumerator (kScalar, kSse2, ...)
//   CMESOLVE_SIMD_TU_VEC  token: the vector type (VecScalar, VecSse2, ...)
//
// Every TU compiles these bodies with -ffp-contract=off, so the spelled-out
// multiply-then-add chains below are what actually executes — no silent FMA
// fusion — and element i's value is the same at every width. Vector loops
// cover the aligned prefix; the scalar tail loop is the width-1 reference
// the vector lanes must match bitwise (at kW == 1 only the tails compile,
// and that IS the scalar kernel table).
//
// NOLINTBEGIN — included multiple times by design; no include guard.
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "util/simd.hpp"
#include "util/simd_kernels.hpp"

namespace cmesolve::util::simdk {
namespace CMESOLVE_SIMD_TU_NS {

namespace {

using V = simd::CMESOLVE_SIMD_TU_VEC;
constexpr int kW = V::kWidth;

// How far ahead (in rows) the batched sweep prefetches the next tile of
// the gathered source window. Tuned loosely: far enough to cover a DRAM
// access at typical lane counts, near enough to stay inside the chunk.
constexpr std::int64_t kPrefetchRows = 8;

inline void prefetch_ro(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 0 /*read*/, 3 /*high locality*/);
#else
  (void)p;
#endif
}

inline void prefetch_rw(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, 1 /*write*/, 3 /*high locality*/);
#else
  (void)p;
#endif
}

// The Jacobi update kernels' flush (kFlushBelow). The scalar tails call the
// width-1 lane op, so they are the reference the vector bodies match.
inline real_t flush(real_t v) noexcept {
  return simd::VecScalar{v}
      .flush_below(simd::VecScalar::broadcast(kFlushBelow))
      .v;
}

// Expands a uint8 lane mask into per-lane all-ones / all-zero double bit
// patterns so the vector loops can blend. Only the masked lane_* kernels
// pay for this, once per chunk call (amortized over the chunk's rows).
[[maybe_unused]] std::vector<double> expand_lane_mask(const std::uint8_t* m,
                                                      std::size_t k) {
  std::vector<double> out(k);
  for (std::size_t q = 0; q < k; ++q) {
    out[q] = m[q] ? std::bit_cast<double>(~std::uint64_t{0}) : 0.0;
  }
  return out;
}

void axpy(real_t* y, const real_t* x, real_t a, std::size_t n) {
  std::size_t i = 0;
  if constexpr (kW > 1) {
    const V va = V::broadcast(a);
    for (; i + kW <= n; i += kW) {
      (V::load(y + i) + va * V::load(x + i)).store(y + i);
    }
  }
  for (; i < n; ++i) {
    const real_t t = a * x[i];
    y[i] += t;
  }
}

void cmul_add(real_t* y, const real_t* c, const real_t* x, std::size_t n) {
  std::size_t i = 0;
  if constexpr (kW > 1) {
    for (; i + kW <= n; i += kW) {
      (V::load(y + i) + V::load(c + i) * V::load(x + i)).store(y + i);
    }
  }
  for (; i < n; ++i) {
    const real_t t = c[i] * x[i];
    y[i] += t;
  }
}

void scaled_cmul_add(real_t* y, const real_t* c, const real_t* x, real_t s1,
                     real_t s2, std::size_t n) {
  std::size_t i = 0;
  if constexpr (kW > 1) {
    const V vs1 = V::broadcast(s1);
    const V vs2 = V::broadcast(s2);
    for (; i + kW <= n; i += kW) {
      // Same association as the scalar source: s1 * (s2*c[i]) * x[i]
      // parses as ((s1 * (s2*c[i])) * x[i]).
      (V::load(y + i) + (vs1 * (vs2 * V::load(c + i))) * V::load(x + i))
          .store(y + i);
    }
  }
  for (; i < n; ++i) {
    const real_t t = s1 * (s2 * c[i]) * x[i];
    y[i] += t;
  }
}

template <bool kAcc>
void uniformize_term_body(real_t* v, real_t* acc, const real_t* bv,
                          const real_t* d, real_t inv, real_t w,
                          std::size_t n) {
  std::size_t i = 0;
  if constexpr (kW > 1) {
    const V vinv = V::broadcast(inv);
    const V vw = V::broadcast(w);
    for (; i + kW <= n; i += kW) {
      const V vv = V::load(v + i);
      if constexpr (kAcc) (V::load(acc + i) + vw * vv).store(acc + i);
      (vv + vinv * (V::load(bv + i) + V::load(d + i) * vv)).store(v + i);
    }
  }
  for (; i < n; ++i) {
    const real_t x = v[i];
    if constexpr (kAcc) {
      const real_t t = w * x;
      acc[i] += t;
    }
    const real_t b = bv[i] + d[i] * x;
    const real_t u = inv * b;
    v[i] = x + u;
  }
}

void uniformize_term(real_t* v, real_t* acc, const real_t* bv,
                     const real_t* d, real_t inv, real_t w, std::size_t n) {
  if (acc != nullptr) {
    uniformize_term_body<true>(v, acc, bv, d, inv, w, n);
  } else {
    uniformize_term_body<false>(v, acc, bv, d, inv, w, n);
  }
}

void scale(real_t* x, real_t a, std::size_t n) {
  std::size_t i = 0;
  if constexpr (kW > 1) {
    const V va = V::broadcast(a);
    for (; i + kW <= n; i += kW) {
      (V::load(x + i) * va).store(x + i);
    }
  }
  for (; i < n; ++i) {
    x[i] *= a;
  }
}

void scale_swap(real_t* x, real_t* nx, const real_t* d, std::size_t n) {
  std::size_t i = 0;
  if constexpr (kW > 1) {
    const V vt = V::broadcast(kFlushBelow);
    for (; i + kW <= n; i += kW) {
      const V vx = V::load(x + i);
      const V v = V::load(nx + i).neg() / V::load(d + i);
      vx.store(nx + i);
      v.flush_below(vt).store(x + i);
    }
  }
  for (; i < n; ++i) {
    const real_t v = -nx[i] / d[i];
    nx[i] = x[i];
    x[i] = flush(v);
  }
}

void scale_swap_damped(real_t* x, real_t* nx, const real_t* d, real_t omega,
                       std::size_t n) {
  const real_t w1 = 1.0 - omega;
  std::size_t i = 0;
  if constexpr (kW > 1) {
    const V vw1 = V::broadcast(w1);
    const V vom = V::broadcast(omega);
    const V vt = V::broadcast(kFlushBelow);
    for (; i + kW <= n; i += kW) {
      const V vx = V::load(x + i);
      const V v = vw1 * vx - (vom * V::load(nx + i)) / V::load(d + i);
      vx.store(nx + i);
      v.flush_below(vt).store(x + i);
    }
  }
  for (; i < n; ++i) {
    const real_t v = w1 * x[i] - (omega * nx[i]) / d[i];
    nx[i] = x[i];
    x[i] = flush(v);
  }
}

void lane_scale_swap(real_t* x, real_t* nx, const real_t* d, std::size_t rows,
                     std::size_t k, const std::uint8_t* lane_active) {
  if constexpr (kW > 1) {
    if (k >= static_cast<std::size_t>(kW)) {
      const std::vector<double> mask = expand_lane_mask(lane_active, k);
      const V vt = V::broadcast(kFlushBelow);
      for (std::size_t i = 0; i < rows; ++i) {
        real_t* px = x + i * k;
        real_t* pn = nx + i * k;
        const real_t* pd = d + i * k;
        std::size_t q = 0;
        for (; q + kW <= k; q += kW) {
          const V m = V::load(mask.data() + q);
          const V vx = V::load(px + q);
          const V vn = V::load(pn + q);
          // Frozen lanes divide garbage by a nonzero diagonal and get
          // blended away — finite/nonzero never traps, result is dead.
          const V v = vn.neg() / V::load(pd + q);
          V::select(m, vx, vn).store(pn + q);
          V::select(m, v.flush_below(vt), vx).store(px + q);
        }
        for (; q < k; ++q) {
          if (!lane_active[q]) continue;
          const real_t v = -pn[q] / pd[q];
          pn[q] = px[q];
          px[q] = flush(v);
        }
      }
      return;
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    real_t* px = x + i * k;
    real_t* pn = nx + i * k;
    const real_t* pd = d + i * k;
    for (std::size_t q = 0; q < k; ++q) {
      if (!lane_active[q]) continue;
      const real_t v = -pn[q] / pd[q];
      pn[q] = px[q];
      px[q] = flush(v);
    }
  }
}

void lane_scale_swap_damped(real_t* x, real_t* nx, const real_t* d,
                            real_t omega, std::size_t rows, std::size_t k,
                            const std::uint8_t* lane_active) {
  const real_t w1 = 1.0 - omega;
  if constexpr (kW > 1) {
    if (k >= static_cast<std::size_t>(kW)) {
      const std::vector<double> mask = expand_lane_mask(lane_active, k);
      const V vw1 = V::broadcast(w1);
      const V vom = V::broadcast(omega);
      const V vt = V::broadcast(kFlushBelow);
      for (std::size_t i = 0; i < rows; ++i) {
        real_t* px = x + i * k;
        real_t* pn = nx + i * k;
        const real_t* pd = d + i * k;
        std::size_t q = 0;
        for (; q + kW <= k; q += kW) {
          const V m = V::load(mask.data() + q);
          const V vx = V::load(px + q);
          const V vn = V::load(pn + q);
          const V v = vw1 * vx - (vom * vn) / V::load(pd + q);
          V::select(m, vx, vn).store(pn + q);
          V::select(m, v.flush_below(vt), vx).store(px + q);
        }
        for (; q < k; ++q) {
          if (!lane_active[q]) continue;
          const real_t v = w1 * px[q] - (omega * pn[q]) / pd[q];
          pn[q] = px[q];
          px[q] = flush(v);
        }
      }
      return;
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    real_t* px = x + i * k;
    real_t* pn = nx + i * k;
    const real_t* pd = d + i * k;
    for (std::size_t q = 0; q < k; ++q) {
      if (!lane_active[q]) continue;
      const real_t v = w1 * px[q] - (omega * pn[q]) / pd[q];
      pn[q] = px[q];
      px[q] = flush(v);
    }
  }
}

void lane_scale(real_t* x, std::size_t rows, std::size_t k, const real_t* inv,
                const std::uint8_t* scale_lane) {
  if constexpr (kW > 1) {
    if (k >= static_cast<std::size_t>(kW)) {
      const std::vector<double> mask = expand_lane_mask(scale_lane, k);
      for (std::size_t i = 0; i < rows; ++i) {
        real_t* row = x + i * k;
        std::size_t q = 0;
        for (; q + kW <= k; q += kW) {
          const V m = V::load(mask.data() + q);
          const V vx = V::load(row + q);
          V::select(m, vx * V::load(inv + q), vx).store(row + q);
        }
        for (; q < k; ++q) {
          if (scale_lane[q]) row[q] *= inv[q];
        }
      }
      return;
    }
  }
  for (std::size_t i = 0; i < rows; ++i) {
    real_t* row = x + i * k;
    for (std::size_t q = 0; q < k; ++q) {
      if (scale_lane[q]) row[q] *= inv[q];
    }
  }
}

// Batched lane sweep. Two walk orders, one bit pattern: whether the loop
// nest is reaction-outer or row-outer, row i's K-lane vector receives its
// contributions in reaction order, so the IEEE sum per (row, lane) is the
// same chain either way and the strategy switch below is invisible to the
// determinism contract (the dispatch-parity suite pins this end-to-end).
//
//   * reaction-outer: zero-fill y, then accumulate one reaction's whole
//     window at a time, block-skipping the unit stream's zero runs. The
//     interleaved y (and a lagged x window) is re-walked once per
//     reaction — cheap while those streams are cache-resident, and the
//     scan only touches contributing rows.
//   * row-outer: one pass over rows; each row's lanes accumulate across
//     all reactions in registers and y is written ONCE. A fraction of the
//     memory traffic (y once, x as lag-grouped forward streams), which is
//     what matters once the sweep outgrows the cache and hits the memory
//     wall.
//
// The crossover is sized by the sweep's total stream footprint.
constexpr double kRowOuterBytes = 8.0 * 1024 * 1024;

void batched_sweep(const BatchedSweepArgs& a, std::int64_t cb,
                   std::int64_t ce) {
  const std::size_t k = a.k;
  // Per-reaction stream pointers and chunk-clamped windows. Real networks
  // have a few dozen reactions at most; the heap fallback keeps the kernel
  // correct for synthetic extremes.
  struct RSpan {
    const real_t* ck;
    const real_t* cf;
    std::int64_t lo, hi, s;
  };
  constexpr std::size_t kMaxStackReactions = 64;
  RSpan rstack[kMaxStackReactions];
  std::vector<RSpan> rheap;
  RSpan* rs = rstack;
  if (a.nreactions > kMaxStackReactions) {
    rheap.resize(a.nreactions);
    rs = rheap.data();
  }
  // The stencil windows only clip rows near the box faces; in the interior
  // every reaction covers the whole chunk. Split the chunk once into
  // [cb, full_lo) / [full_lo, full_hi) / [full_hi, ce): the middle segment
  // runs a branch-lighter loop with no per-(row, reaction) window tests.
  std::int64_t full_lo = cb;
  std::int64_t full_hi = ce;
  std::int64_t s_min = 0;  // most-negative stride = the leading x stream
  for (std::size_t r = 0; r < a.nreactions; ++r) {
    const std::int64_t s = a.strides[r];
    rs[r].s = s;
    rs[r].lo = std::max<std::int64_t>(cb, s > 0 ? s : 0);
    rs[r].hi = std::min<std::int64_t>(ce, s < 0 ? a.nrows + s : a.nrows);
    rs[r].ck = a.cache + r * static_cast<std::size_t>(a.nrows);
    rs[r].cf = a.coef + r * k;
    full_lo = std::max(full_lo, rs[r].lo);
    full_hi = std::min(full_hi, rs[r].hi);
    s_min = std::min(s_min, s);
  }
  if (full_hi < full_lo) full_hi = full_lo;

  // With ~2 streams per reaction (unit table + lagged x window) the stream
  // count outruns the hardware prefetchers, so the sweep prefetches its own
  // tiles: the y destination and the leading x stream every row, and every
  // unit-table stream once per 8-row block.
  const auto prefetch_row = [&](std::int64_t i, std::int64_t rb) {
    if (i + kPrefetchRows < ce) {
      prefetch_rw(a.y + static_cast<std::size_t>(i + kPrefetchRows) * k);
    }
    const std::int64_t xlead = i - s_min + kPrefetchRows;
    if (xlead < a.nrows) {
      prefetch_ro(a.x + static_cast<std::size_t>(xlead) * k);
    }
    if (((i - rb) & 7) == 0) {
      constexpr std::int64_t kCacheAhead = 64;  // 8 lines of unit doubles
      for (std::size_t r = 0; r < a.nreactions; ++r) {
        const std::int64_t ci = i - rs[r].s + kCacheAhead;
        if (ci >= 0 && ci < a.nrows) prefetch_ro(rs[r].ck + ci);
      }
    }
  };

  const bool row_outer =
      static_cast<double>(a.nrows) * static_cast<double>(sizeof(real_t)) *
          (2.0 * static_cast<double>(k) + static_cast<double>(a.nreactions)) >
      kRowOuterBytes;

  if (!row_outer) {
    // Reaction-outer: cache-resident regime.
    std::fill(a.y + static_cast<std::size_t>(cb) * k,
              a.y + static_cast<std::size_t>(ce) * k, real_t{0});
    for (std::size_t r = 0; r < a.nreactions; ++r) {
      const std::int64_t lo = rs[r].lo;
      const std::int64_t hi = rs[r].hi;
      const std::int64_t s = rs[r].s;
      const real_t* ck = rs[r].ck;
      const real_t* cf = rs[r].cf;
      if constexpr (kW > 1) {
        // The lane coefficients are row-invariant: preload their vectors
        // once per reaction instead of once per row.
        constexpr std::size_t kMaxLaneVecs = 16;
        V vcf[kMaxLaneVecs];
        const std::size_t nvec = k / static_cast<std::size_t>(kW);
        const bool hoisted = nvec <= kMaxLaneVecs;
        if (hoisted) {
          for (std::size_t b = 0; b < nvec; ++b) {
            vcf[b] = V::load(cf + b * static_cast<std::size_t>(kW));
          }
        }
        const auto do_row = [&](std::int64_t i) {
          const real_t u = ck[i - s];
          if (u == 0.0) return;
          const real_t* xs = a.x + static_cast<std::size_t>(i - s) * k;
          real_t* yd = a.y + static_cast<std::size_t>(i) * k;
          const V vu = V::broadcast(u);
          std::size_t q = 0;
          if (hoisted) {
            for (std::size_t b = 0; b < nvec; ++b, q += kW) {
              (V::load(yd + q) + (vcf[b] * vu) * V::load(xs + q))
                  .store(yd + q);
            }
          } else {
            for (; q + kW <= k; q += kW) {
              (V::load(yd + q) + (V::load(cf + q) * vu) * V::load(xs + q))
                  .store(yd + q);
            }
          }
          for (; q < k; ++q) {
            const real_t t = (cf[q] * u) * xs[q];
            yd[q] += t;
          }
        };
        // Block-skip the unit stream's zero runs: one vector compare tests
        // kW consecutive u values, an all-zero block costs a single branch.
        // Skipped rows are exactly the rows do_row's per-row zero test
        // would skip, so the bits never depend on the scan.
        std::int64_t i = lo;
        for (; i + kW <= hi; i += kW) {
          if (!V::load(ck + (i - s)).any_nonzero()) continue;
          for (std::int64_t j = i; j < i + kW; ++j) do_row(j);
        }
        for (; i < hi; ++i) do_row(i);
      } else {
        for (std::int64_t i = lo; i < hi; ++i) {
          const real_t u = ck[i - s];
          if (u == 0.0) continue;
          const real_t* xs = a.x + static_cast<std::size_t>(i - s) * k;
          real_t* yd = a.y + static_cast<std::size_t>(i) * k;
          for (std::size_t q = 0; q < k; ++q) {
            const real_t t = (cf[q] * u) * xs[q];
            yd[q] += t;
          }
        }
      }
    }
    return;
  }

  if constexpr (kW > 1) {
    const std::size_t nvec = k / static_cast<std::size_t>(kW);
    const std::size_t tail0 = nvec * static_cast<std::size_t>(kW);
    constexpr std::size_t kMaxLaneVecs = 8;
    if (nvec <= kMaxLaneVecs) {
      // Lane-coefficient vectors are row-invariant: preload the whole
      // [reaction][lane-block] table once per chunk when it fits a small
      // stack buffer (it always does for real batch widths).
      constexpr std::size_t kCfCap = 128;
      V cfv[kCfCap];
      const bool pre = a.nreactions * nvec <= kCfCap && nvec > 0;
      if (pre) {
        for (std::size_t r = 0; r < a.nreactions; ++r) {
          for (std::size_t b = 0; b < nvec; ++b) {
            cfv[r * nvec + b] =
                V::load(rs[r].cf + b * static_cast<std::size_t>(kW));
          }
        }
      }
      // One row's lane vector, accumulated across reactions in reaction
      // order. `tested` compiles the window check in only for the face
      // segments; the interior block loop below guarantees full windows.
      const auto do_row = [&](std::int64_t i, auto tested) {
        V acc[kMaxLaneVecs];
        for (std::size_t b = 0; b < nvec; ++b) acc[b] = V::zero();
        real_t tacc[kW];  // k % kW trailing lanes, accumulated in scalar
        for (std::size_t t = tail0; t < k; ++t) tacc[t - tail0] = 0.0;
        for (std::size_t r = 0; r < a.nreactions; ++r) {
          if constexpr (decltype(tested)::value) {
            if (i < rs[r].lo || i >= rs[r].hi) continue;
          }
          const real_t u = rs[r].ck[i - rs[r].s];
          if (u == 0.0) continue;
          const real_t* xs = a.x + static_cast<std::size_t>(i - rs[r].s) * k;
          const V vu = V::broadcast(u);
          if (pre) {
            for (std::size_t b = 0; b < nvec; ++b) {
              acc[b] = acc[b] +
                       (cfv[r * nvec + b] * vu) *
                           V::load(xs + b * static_cast<std::size_t>(kW));
            }
          } else {
            for (std::size_t b = 0; b < nvec; ++b) {
              const std::size_t q = b * static_cast<std::size_t>(kW);
              acc[b] =
                  acc[b] + (V::load(rs[r].cf + q) * vu) * V::load(xs + q);
            }
          }
          for (std::size_t t = tail0; t < k; ++t) {
            const real_t term = (rs[r].cf[t] * u) * xs[t];
            tacc[t - tail0] += term;
          }
        }
        real_t* yd = a.y + static_cast<std::size_t>(i) * k;
        for (std::size_t b = 0; b < nvec; ++b) {
          acc[b].store(yd + b * static_cast<std::size_t>(kW));
        }
        for (std::size_t t = tail0; t < k; ++t) yd[t] = tacc[t - tail0];
      };
      for (std::int64_t i = cb; i < full_lo; ++i) {
        prefetch_row(i, cb);
        do_row(i, std::bool_constant<true>{});
      }
      // Interior: process kW rows per block so the zero-scan of each
      // reaction's unit stream is a single vector test. The unit table is
      // mostly zeros on structured boxes (whole packed-index ranges where a
      // reactant count is zero), and the zeros arrive in runs, so one
      // any_nonzero() usually retires kW rows of one reaction at once —
      // the width-1 table must test each (row, reaction) pair separately.
      // Inside a surviving block rows still accumulate one at a time in
      // reaction order, so the bits never depend on the block walk.
      std::int64_t i = full_lo;
      for (; i + kW <= full_hi; i += kW) {
        prefetch_row(i, full_lo);
        V acc[kW][kMaxLaneVecs];
        real_t tacc[kW][kW];
        for (int j = 0; j < kW; ++j) {
          for (std::size_t b = 0; b < nvec; ++b) acc[j][b] = V::zero();
          for (std::size_t t = tail0; t < k; ++t) tacc[j][t - tail0] = 0.0;
        }
        for (std::size_t r = 0; r < a.nreactions; ++r) {
          const real_t* cku = rs[r].ck + (i - rs[r].s);
          if (!V::load(cku).any_nonzero()) continue;
          for (int j = 0; j < kW; ++j) {
            const real_t u = cku[j];
            if (u == 0.0) continue;
            const real_t* xs =
                a.x + static_cast<std::size_t>(i + j - rs[r].s) * k;
            const V vu = V::broadcast(u);
            if (pre) {
              for (std::size_t b = 0; b < nvec; ++b) {
                acc[j][b] = acc[j][b] +
                            (cfv[r * nvec + b] * vu) *
                                V::load(xs + b * static_cast<std::size_t>(kW));
              }
            } else {
              for (std::size_t b = 0; b < nvec; ++b) {
                const std::size_t q = b * static_cast<std::size_t>(kW);
                acc[j][b] = acc[j][b] +
                            (V::load(rs[r].cf + q) * vu) * V::load(xs + q);
              }
            }
            for (std::size_t t = tail0; t < k; ++t) {
              const real_t term = (rs[r].cf[t] * u) * xs[t];
              tacc[j][t - tail0] += term;
            }
          }
        }
        for (int j = 0; j < kW; ++j) {
          real_t* yd = a.y + static_cast<std::size_t>(i + j) * k;
          for (std::size_t b = 0; b < nvec; ++b) {
            acc[j][b].store(yd + b * static_cast<std::size_t>(kW));
          }
          for (std::size_t t = tail0; t < k; ++t) yd[t] = tacc[j][t - tail0];
        }
      }
      for (; i < full_hi; ++i) do_row(i, std::bool_constant<false>{});
      for (i = full_hi; i < ce; ++i) {
        prefetch_row(i, full_hi);
        do_row(i, std::bool_constant<true>{});
      }
      return;
    }
  }
  // Scalar reference (and the degenerate very-wide-batch fallback): same
  // row-outer walk, accumulating directly into the row's y slots (L1-hot
  // for the whole row pass, still one DRAM-visible write per row).
  const auto run_rows = [&](std::int64_t rb, std::int64_t re, auto tested) {
    for (std::int64_t i = rb; i < re; ++i) {
      prefetch_row(i, rb);
      real_t* yd = a.y + static_cast<std::size_t>(i) * k;
      for (std::size_t q = 0; q < k; ++q) yd[q] = 0.0;
      for (std::size_t r = 0; r < a.nreactions; ++r) {
        if constexpr (decltype(tested)::value) {
          if (i < rs[r].lo || i >= rs[r].hi) continue;
        }
        const real_t u = rs[r].ck[i - rs[r].s];
        if (u == 0.0) continue;
        const real_t* xs = a.x + static_cast<std::size_t>(i - rs[r].s) * k;
        const real_t* cf = rs[r].cf;
        for (std::size_t q = 0; q < k; ++q) {
          const real_t t = (cf[q] * u) * xs[q];
          yd[q] += t;
        }
      }
    }
  };
  run_rows(cb, full_lo, std::bool_constant<true>{});
  run_rows(full_lo, full_hi, std::bool_constant<false>{});
  run_rows(full_hi, ce, std::bool_constant<true>{});
}

}  // namespace

extern const KernelOps kOps;  // external linkage: simd.cpp picks this up
const KernelOps kOps = {
    simd::Isa::CMESOLVE_SIMD_TU_ISA,
    simd::to_string(simd::Isa::CMESOLVE_SIMD_TU_ISA),
    kW,
    &axpy,
    &cmul_add,
    &scaled_cmul_add,
    &uniformize_term,
    &scale,
    &scale_swap,
    &scale_swap_damped,
    &lane_scale_swap,
    &lane_scale_swap_damped,
    &lane_scale,
    &batched_sweep,
};

}  // namespace CMESOLVE_SIMD_TU_NS
}  // namespace cmesolve::util::simdk
// NOLINTEND
