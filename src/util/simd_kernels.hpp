#pragma once
//
// Function-pointer kernel table for the explicit SIMD layer.
//
// Each entry set is compiled once per ISA from the same width-templated
// bodies (simd_kernels_impl.hpp) into its own translation unit with the
// matching -m flags plus -ffp-contract=off. kernels() resolves the table
// through util::simd::active_isa() — one atomic load on the hot path.
//
// Bitwise contract: for every kernel, element i of the output is produced
// by the exact same sequence of IEEE-754 operations at every width and
// every ISA (vectorization is across independent elements/lanes, never
// inside a reduction), so all tables produce bit-identical results. The
// dispatch-parity property test (tests/test_simd_dispatch.cpp) enforces
// this end-to-end through the solvers.
//
#include <cstddef>
#include <cstdint>

#include "util/simd.hpp"
#include "util/types.hpp"

namespace cmesolve::util::simdk {

/// The four Jacobi update kernels (scale_swap and its damped and lane
/// forms) store +0.0 for every new iterate entry whose magnitude is below
/// this. An entry that underflows towards the subnormal range would cost a
/// microcode assist on every multiply, add and divide that touches it;
/// flushed at 1e-300 it stays 2^25 above DBL_MIN, and one sweep moves the
/// L1 norm by at most n * 1e-300. Not hardware FTZ/DAZ: that mode is per
/// thread, so the bits would depend on which thread ran a chunk.
inline constexpr real_t kFlushBelow = 1e-300;

/// One batched-lane stencil sweep chunk (BatchedStencilOperator).
/// Layout is point-major: element (row i, lane q) lives at x[i*k + q].
/// Lane freezing is mapped onto the SIMD path by zeroing the frozen
/// lanes' coefficients (coef[r*k+q] == 0 for frozen q): the frozen lane
/// then accumulates exact zeros into y, which the caller's "frozen lanes
/// hold zero garbage" contract already permits, while active lanes see
/// the identical multiply/add chain as the dense case.
struct BatchedSweepArgs {
  const real_t* x;            ///< [nrows*k] interleaved input
  real_t* y;                  ///< [nrows*k] interleaved output (chunk zeroed here)
  const real_t* cache;        ///< [nreactions][nrows] unit propensities U[r][src]
  const real_t* coef;         ///< [nreactions][k] lane coefficients (0 = frozen)
  const std::int64_t* strides;  ///< [nreactions] row stride of each reaction
  std::size_t nreactions;
  std::int64_t nrows;
  std::size_t k;              ///< lanes (batch width)
};

/// Per-ISA entry points. All pointers are non-null in every table.
struct KernelOps {
  simd::Isa isa;
  const char* name;  ///< to_string(isa)
  int width;         ///< doubles per vector

  /// y[i] += a * x[i]
  void (*axpy)(real_t* y, const real_t* x, real_t a, std::size_t n);
  /// y[i] += c[i] * x[i]   (cached stencil sweep window, residual pass)
  void (*cmul_add)(real_t* y, const real_t* c, const real_t* x,
                   std::size_t n);
  /// y[i] += s1 * (s2 * c[i]) * x[i]   (recompute-mode fused tile window;
  /// the parenthesisation matches the scalar source exactly)
  void (*scaled_cmul_add)(real_t* y, const real_t* c, const real_t* x,
                          real_t s1, real_t s2, std::size_t n);
  /// One uniformization series term over bv = offdiag * v, fused into a
  /// single pass: acc[i] += w * v[i] (skipped when acc is null), then
  /// v[i] = v[i] + inv * (bv[i] + d[i] * v[i]), i.e. v <- (I + A/lambda) v
  /// with inv = 1/lambda. Per element it runs the operation chain of the
  /// cmul_add(bv, d, v), axpy(v += inv * bv), axpy(acc += w * v) sequence.
  void (*uniformize_term)(real_t* v, real_t* acc, const real_t* bv,
                          const real_t* d, real_t inv, real_t w,
                          std::size_t n);
  /// x[i] *= a
  void (*scale)(real_t* x, real_t a, std::size_t n);
  /// Fused Jacobi scale+swap: v = -nx[i]/d[i]; nx[i] = x[i];
  /// x[i] = flush(v), where flush stores +0.0 when |v| < kFlushBelow.
  void (*scale_swap)(real_t* x, real_t* nx, const real_t* d, std::size_t n);
  /// Damped variant: v = (1-omega)*x[i] - omega*nx[i]/d[i]; nx[i] = x[i];
  /// x[i] = flush(v). Kept separate from scale_swap — at omega == 1 the
  /// damped formula is not the undamped one's operation chain.
  void (*scale_swap_damped)(real_t* x, real_t* nx, const real_t* d,
                            real_t omega, std::size_t n);
  /// Lane-masked scale+swap over an interleaved [rows][k] block: active
  /// lanes get the scale_swap update and flush, frozen lanes keep their bits
  /// (mask mapped onto SIMD blends; frozen nx lanes receive x's bits —
  /// dead by the frozen-lane contract).
  void (*lane_scale_swap)(real_t* x, real_t* nx, const real_t* d,
                          std::size_t rows, std::size_t k,
                          const std::uint8_t* lane_active);
  void (*lane_scale_swap_damped)(real_t* x, real_t* nx, const real_t* d,
                                 real_t omega, std::size_t rows,
                                 std::size_t k,
                                 const std::uint8_t* lane_active);
  /// Lane-masked rescale over [rows][k]: x[i*k+q] *= inv[q] where
  /// scale_lane[q] != 0; other lanes keep their bits.
  void (*lane_scale)(real_t* x, std::size_t rows, std::size_t k,
                     const real_t* inv, const std::uint8_t* scale_lane);
  /// Batched stencil sweep over rows [cb, ce), row-outer: each row's k-lane
  /// vector accumulates y[i*k+q] = sum_r (coef[r*k+q]*u) * x[(i-s_r)*k+q)
  /// across reactions IN REACTION ORDER (the per-row summation order the
  /// determinism contract fixes) and is written once, with the per-row
  /// u == 0 skip — vectorized across the k lanes, and across rows for the
  /// unit-stream zero scan.
  void (*batched_sweep)(const BatchedSweepArgs& a, std::int64_t cb,
                        std::int64_t ce);
};

/// The table for simd::active_isa(). Hot path: one relaxed atomic load
/// after first-use resolution.
const KernelOps& kernels();

/// The table for a specific ISA; falls back to scalar when `isa` is not
/// compiled in (callers that care should consult simd::compiled_isas()).
const KernelOps& kernels_for(simd::Isa isa);

}  // namespace cmesolve::util::simdk
