#pragma once
//
// Transient probability landscape P(t) = exp(A t) P(0) by uniformization —
// the extension the paper lists as future work (Sec. VIII: "we plan to
// further develop our GPU-based CME stochastic framework by including
// transient dynamic calculation").
//
// With lambda >= max_i |a_ii|, the uniformized matrix B = I + A / lambda is
// column-stochastic (column-substochastic on a leaky FSP truncation) and
//
//   P(t) = sum_{k>=0} PoissonPmf(k; lambda t) * B^k P(0).
//
// The production engine in transient.cpp adds, over the original header toy:
//
//  * two-sided Poisson truncation — the accumulation window drops both the
//    left tail (terms before the Poisson bulk, relevant for large lambda*t)
//    and the right tail, each bounded by eps/2 per step;
//  * interval splitting — a horizon whose Poisson mean exceeds
//    `max_step_mean` is split into equal sub-steps so the series length per
//    step stays bounded and the left-tail trim can engage;
//  * checkpointed output — `transient_solve_grid` walks an ascending time
//    grid and hands the caller the marginal at every requested t;
//  * explicit mass accounting — `covered_mass` and `truncated_mass` close
//    to 1 within rounding for a completed single-step solve;
//  * a `renormalize` switch — FSP transient propagation keeps the raw
//    substochastic vector because 1 - ||P(t)||_1 IS the error bound.
//
// Every vector update runs through the deterministic kernel-table / chunked
// reduction primitives (vector_ops.hpp), so a transient solve is bitwise
// identical at any CMESOLVE_THREADS and on every compiled ISA, matching the
// Jacobi contract. Each term costs one SpMV plus one fused pass
// (uniformize_term) that accumulates the term and advances v, so the kernel
// profile is close to a Jacobi sweep and runs on the same operators.
//
#include <concepts>
#include <cstdint>
#include <functional>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "solver/jacobi.hpp"
#include "util/types.hpp"

namespace cmesolve::solver {

struct TransientOptions {
  /// Allowed truncated Poisson mass per uniformization step (left + right
  /// tail combined). Must be in (0, 1): eps == 0 is rejected with
  /// std::invalid_argument because the accumulated mass carries ~1e-12 of
  /// rounding error, so `mass >= 1 - eps` could never fire and the solve
  /// would spin to max_terms on zero-weight SpMVs. Values below the
  /// accumulation floor are legal — the tail-exhaustion exit terminates the
  /// series at the numerically exact stopping point instead.
  real_t eps = 1e-12;
  /// lambda = margin * max |a_ii|; must be >= 1 or B has negative entries.
  real_t lambda_margin = 1.01;
  std::uint64_t max_terms = 1'000'000;  ///< total series-length budget
  /// Interval splitting: one uniformization step never carries a Poisson
  /// mean above this; longer horizons run ceil(lambda*t / max_step_mean)
  /// equal sub-steps, each with an eps share of eps/steps.
  real_t max_step_mean = 4096.0;
  /// L1-renormalize after every step (proper distribution out). FSP
  /// transient propagation sets false: on the leaky truncated generator the
  /// missing mass 1 - ||P(t)||_1 is exactly the FSP error bound and must
  /// not be washed out.
  bool renormalize = true;
};

struct TransientResult {
  std::uint64_t matvecs = 0;  ///< SpMV count (total series length)
  std::uint64_t steps = 0;    ///< uniformization sub-steps taken
  /// Leading series terms whose accumulation was skipped by the left-tail
  /// trim (their SpMVs still run — B^k P(0) is needed to continue — but the
  /// axpy into the accumulator is saved and the window stays tight).
  std::uint64_t left_skipped = 0;
  /// Product over sub-steps of the per-step accumulated Poisson window
  /// mass. For a completed (!truncated_early) SINGLE-step solve,
  /// covered_mass + truncated_mass == 1 within rounding.
  real_t covered_mass = 0.0;
  /// Sum over sub-steps of the computed mass outside the window: the
  /// left-trimmed head plus the right tail walked scalar (no SpMVs) until
  /// it underflows. Meaningless when truncated_early (the tail was never
  /// reached).
  real_t truncated_mass = 0.0;
  real_t lambda = 0.0;
  /// Hit the max_terms budget with Poisson mass still outstanding. The
  /// returned `p` is the truncated series renormalized by the covered mass
  /// (when renormalize is set) — except when covered_mass == 0, where `p`
  /// is left unchanged: there is no usable information in the prefix.
  bool truncated_early = false;
  /// A step ended because every remaining tail weight underflows to zero in
  /// double precision — the numerically exact stopping point, and the
  /// normal exit when eps is at or below the accumulation floor.
  bool tail_exhausted = false;
};

/// Type-erased Jacobi-operator view the out-of-line engine runs on: row
/// count, dense diagonal, and the strictly off-diagonal multiply. Built via
/// transient_operator() from anything satisfying JacobiOperator — assembled
/// CSR/ELL/DIA, matrix-free stencil (SIMD-dispatched), masked FSP stencil.
struct TransientOperator {
  index_t n = 0;
  std::span<const real_t> diag;
  std::function<void(std::span<const real_t>, std::span<real_t>)> multiply;
};

/// Build the type-erased view. The result captures `op` BY REFERENCE (the
/// multiply closure and the diag span both point into it): it is a
/// non-owning view that must not outlive the source operator. Binding a
/// temporary is rejected at compile time by the deleted rvalue overload.
template <JacobiOperator Op>
[[nodiscard]] TransientOperator transient_operator(const Op& op) {
  return TransientOperator{
      op.nrows(), op.diag(),
      [&op](std::span<const real_t> x, std::span<real_t> y) {
        op.multiply(x, y);
      }};
}

template <JacobiOperator Op>
TransientOperator transient_operator(const Op&& op) = delete;

/// Rows per parallel_for chunk of uniformize_term. One series term is a
/// single streaming pass of a few flops per row, and a hand-off to the
/// thread pool costs several microseconds. Measured on a 4-vCPU x86-64 host
/// (AVX-512 table): a pooled pass over 10k rows took 14 us against 7 us
/// inline, over 64k rows 79 us against 64 us. Vectors up to this many rows
/// (512 KiB each) therefore run inline on the calling thread.
inline constexpr std::size_t kUniformizeGrain = std::size_t{1} << 16;

/// One uniformization series term after the off-diagonal product
/// bv = offdiag * v (KernelOps::uniformize_term through the kernel table):
/// acc += w * v when `acc` is non-empty, then v <- v + inv_lambda *
/// (bv + d .* v). One pass over the vectors, bitwise equal to the
/// three-pass cmul_add / axpy / axpy sequence at every ISA and thread count.
void uniformize_term(std::span<real_t> v, std::span<real_t> acc,
                     std::span<const real_t> bv, std::span<const real_t> d,
                     real_t inv_lambda, real_t w);

/// Checkpoint callback of transient_solve_grid, called as f(index, p) at
/// every grid point. An observer returns void; a callable returning bool
/// stops the walk by returning false — the remaining grid segments are
/// then not propagated.
class CheckpointFn {
 public:
  CheckpointFn() = default;
  template <class F>
    requires(!std::same_as<std::remove_cvref_t<F>, CheckpointFn> &&
             std::invocable<F&, std::size_t, std::span<const real_t>>)
  CheckpointFn(F f) {  // implicit: call sites pass lambdas
    if constexpr (std::is_void_v<std::invoke_result_t<
                      F&, std::size_t, std::span<const real_t>>>) {
      fn_ = [f = std::move(f)](std::size_t i,
                               std::span<const real_t> p) mutable {
        f(i, p);
        return true;
      };
    } else {
      fn_ = std::move(f);
    }
  }
  /// False stops the walk.
  bool operator()(std::size_t i, std::span<const real_t> p) const {
    return !fn_ || fn_(i, p);
  }

 private:
  std::function<bool(std::size_t, std::span<const real_t>)> fn_;
};

/// Advance `p` in place from P(0) to P(t).
TransientResult transient_solve(const TransientOperator& op, real_t t,
                                std::span<real_t> p,
                                const TransientOptions& opt = {});

/// Advance `p` through an ascending grid of absolute times (first entry may
/// be 0 == "now"), invoking `on_checkpoint(index, p)` at every grid point.
/// The eps budget applies per grid segment; max_terms is a budget for the
/// whole walk. When the series budget runs out (truncated_early) the walk
/// stops and no further checkpoints fire — including the one whose segment
/// was cut, since `p` is then a mid-series partial sum, not P(t). A
/// checkpoint returning false stops the walk after that grid point, with
/// `p` holding its P(t). Returns the aggregate over the segments walked
/// (covered_mass multiplies, truncated_mass/matvecs accumulate).
TransientResult transient_solve_grid(const TransientOperator& op,
                                     std::span<const real_t> t_grid,
                                     std::span<real_t> p,
                                     const CheckpointFn& on_checkpoint,
                                     const TransientOptions& opt = {});

template <JacobiOperator Op>
TransientResult transient_solve(const Op& op, real_t t, std::span<real_t> p,
                                const TransientOptions& opt = {}) {
  return transient_solve(transient_operator(op), t, p, opt);
}

template <JacobiOperator Op>
TransientResult transient_solve_grid(const Op& op,
                                     std::span<const real_t> t_grid,
                                     std::span<real_t> p,
                                     const CheckpointFn& on_checkpoint,
                                     const TransientOptions& opt = {}) {
  return transient_solve_grid(transient_operator(op), t_grid, p,
                              on_checkpoint, opt);
}

}  // namespace cmesolve::solver
