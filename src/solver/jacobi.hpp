#pragma once
//
// Jacobi iteration for the singular steady-state system A P = 0 (Sec. IV).
//
// Component-wise:  x_i^{k+1} = -(1 / a_ii) * sum_{j != i} a_ij x_j^k
// with the probability-vector invariant maintained by periodic L1
// renormalization, and the paper's two-part stopping criterion:
//
//   converged:  ||r^k||_inf / (||A||_inf * ||x^k||_inf)  <= eps
//   stagnated:  | ||r^{k+1}||_inf - ||r^k||_inf | / ||r^k||_inf <= eps_stag
//
// The residual costs as much as a sweep, so it is evaluated only every
// `check_every` iterations (Sec. IV).
//
#include <algorithm>
#include <concepts>
#include <functional>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "solver/vector_ops.hpp"
#include "util/aligned_vector.hpp"
#include "util/parallel.hpp"
#include "util/simd_kernels.hpp"
#include "util/timer.hpp"
#include "util/types.hpp"

namespace cmesolve::solver {

/// Anything that multiplies by the strictly off-diagonal part of A and
/// exposes the dense diagonal.
template <class Op>
concept JacobiOperator = requires(const Op& op, std::span<const real_t> x,
                                  std::span<real_t> y) {
  { op.nrows() } -> std::convertible_to<index_t>;
  { op.diag() } -> std::convertible_to<std::span<const real_t>>;
  { op.offdiag_nnz() } -> std::convertible_to<std::size_t>;
  op.multiply(x, y);
};

struct JacobiOptions {
  real_t eps = 1e-8;                ///< paper's epsilon
  real_t stagnation_eps = 1e-8;     ///< relative residual-change floor
  std::uint64_t max_iterations = 1'000'000;
  std::uint32_t check_every = 100;  ///< residual evaluation period
  std::uint32_t normalize_every = 10;  ///< L1 renormalization period
  /// Consecutive residual checks that must look flat before declaring
  /// stagnation (guards against oscillatory residuals matching by chance).
  std::uint32_t stagnation_patience = 2;
  real_t damping = 1.0;  ///< 1.0 = plain Jacobi; <1 = weighted (extension)
  /// Observer invoked at every residual evaluation with (iteration,
  /// normalized residual) — convergence-history tracing.
  std::function<void(std::uint64_t, real_t)> on_residual;
  /// When > 0, keep a stride-sampled residual history of at most this many
  /// samples in JacobiResult::residual_history: every residual check is
  /// recorded until the buffer fills, then every 2nd surviving sample is
  /// kept and the sampling stride doubles — bounded memory, full-range
  /// coverage. 0 (the default) records nothing.
  std::size_t history_capacity = 0;
};

enum class StopReason : std::uint8_t {
  kConverged,
  kStagnated,
  kMaxIterations,
};

/// One point of the convergence history: the normalized residual as
/// evaluated at iteration `iteration`.
struct ResidualSample {
  std::uint64_t iteration = 0;
  real_t residual = 0.0;
};

struct JacobiResult {
  std::uint64_t iterations = 0;
  real_t residual = 0.0;        ///< last normalized residual
  StopReason reason = StopReason::kMaxIterations;
  real_t seconds = 0.0;         ///< host wall-clock
  std::uint64_t flops = 0;      ///< 2*offdiag_nnz + n per sweep, summed
  real_t gflops = 0.0;          ///< measured host throughput
  /// Stride-sampled convergence history (JacobiOptions::history_capacity).
  std::vector<ResidualSample> residual_history;
  /// Final sampling stride, in residual checks: samples are check numbers
  /// 0, stride, 2*stride, ... (starts at 1, doubles on each compaction).
  std::uint64_t history_stride = 1;
};

[[nodiscard]] constexpr const char* to_string(StopReason r) noexcept {
  switch (r) {
    case StopReason::kConverged: return "converged";
    case StopReason::kStagnated: return "stagnated";
    case StopReason::kMaxIterations: return "max-iterations";
  }
  return "?";
}

/// Solve A P = 0. `a_inf_norm` is ||A||_inf of the FULL matrix (with
/// diagonal); `x` carries the initial guess in and the solution out.
template <JacobiOperator Op>
JacobiResult jacobi_solve(const Op& op, real_t a_inf_norm,
                          std::span<real_t> x, const JacobiOptions& opt = {}) {
  const index_t n = op.nrows();
  if (x.size() != static_cast<std::size_t>(n)) {
    throw std::invalid_argument("jacobi_solve: x size mismatch");
  }
  const std::span<const real_t> d = op.diag();
  for (index_t i = 0; i < n; ++i) {
    if (d[i] == 0.0) {
      throw std::domain_error(
          "jacobi_solve: zero diagonal (absorbing state in the CME)");
    }
  }

  // 64-byte aligned solver state: SIMD loads in the kernels start on a
  // vector boundary instead of incidentally.
  util::aligned_vector<real_t> next(static_cast<std::size_t>(n));
  util::aligned_vector<real_t> resid(static_cast<std::size_t>(n));
  const real_t omega = opt.damping;
  const util::simdk::KernelOps& ko = util::simdk::kernels();

  CMESOLVE_TRACE_SPAN("jacobi.solve");
  WallTimer timer;
  JacobiResult out;
  const std::uint64_t flops_per_sweep =
      2ULL * op.offdiag_nnz() + static_cast<std::uint64_t>(n);
  real_t prev_residual = -1.0;
  std::uint32_t flat_checks = 0;
  std::uint64_t check_number = 0;  // residual checks done (history sampling)
  // Stride-doubling compaction needs room for at least 2 survivors.
  const std::size_t history_cap =
      opt.history_capacity > 0 ? std::max<std::size_t>(opt.history_capacity, 2)
                               : 0;

  normalize_l1(x);
  for (std::uint64_t it = 1; it <= opt.max_iterations; ++it) {
    // One sweep: next = -D^{-1} (L+U) x, optionally damped. The diagonal
    // scale and the swap are elementwise, so the parallel split cannot
    // change the numbers.
    {
      CMESOLVE_TRACE_SPAN("jacobi.sweep");
      op.multiply(x, next);
      // Fused diagonal-scale + swap through the SIMD kernel table: one
      // pass over the state instead of scale-then-swap, same per-element
      // values. Both kernels store +0.0 for entries below
      // util::simdk::kFlushBelow, so the iterate never turns subnormal.
      // The damped formula stays a separate kernel with its own chain.
      real_t* pn = next.data();
      real_t* px = x.data();
      const real_t* pd = d.data();
      if (omega == 1.0) {
        util::parallel_for(static_cast<std::size_t>(n),
                           [pn, px, pd, &ko](std::size_t b, std::size_t e) {
                             ko.scale_swap(px + b, pn + b, pd + b, e - b);
                           });
      } else {
        util::parallel_for(
            static_cast<std::size_t>(n),
            [pn, px, pd, omega, &ko](std::size_t b, std::size_t e) {
              ko.scale_swap_damped(px + b, pn + b, pd + b, omega, e - b);
            });
      }
    }
    out.iterations = it;
    out.flops += flops_per_sweep;

    if (opt.normalize_every > 0 && it % opt.normalize_every == 0) {
      CMESOLVE_TRACE_INSTANT("jacobi.renormalize");
      obs::count("jacobi.renormalizations");
      if (obs::flight_enabled()) {
        // The L1 drift since the last renormalization — an extra reduction,
        // paid only in flight-recording mode.
        obs::flight("jacobi.l1_drift", obs::FlightKind::kNormalization, it,
                    norm_l1(x));
      }
      normalize_l1(x);
    }

    if (it % opt.check_every == 0 || it == opt.max_iterations) {
      CMESOLVE_TRACE_SPAN("jacobi.residual_check");
      normalize_l1(x);
      // r = A x = (L+U) x + D x
      op.multiply(x, resid);
      {
        real_t* pr = resid.data();
        const real_t* px = x.data();
        const real_t* pd = d.data();
        util::parallel_for(static_cast<std::size_t>(n),
                           [pr, px, pd, &ko](std::size_t b, std::size_t e) {
                             ko.cmul_add(pr + b, pd + b, px + b, e - b);
                           });
      }
      const real_t xn = norm_inf(x);
      const real_t rn = norm_inf(resid);
      // An exactly-zero residual means the iterate solves A x = 0 to the
      // last bit. It must short-circuit to kConverged here: letting it fall
      // through would divide by a (possibly zero) a_inf_norm * xn product,
      // and a zero prev_residual would turn the relative-change stagnation
      // test below into 0/0.
      if (rn == 0.0) {
        out.residual = 0.0;
        CMESOLVE_TRACE_COUNTER("jacobi.residual", out.residual);
        obs::observe("jacobi.residual", out.residual);
        obs::flight("jacobi.residual", obs::FlightKind::kResidual, it, 0.0);
        if (opt.on_residual) opt.on_residual(it, out.residual);
        out.reason = StopReason::kConverged;
        break;
      }
      out.residual = rn / (a_inf_norm * (xn > 0 ? xn : 1.0));
      out.flops += flops_per_sweep;  // the residual costs one extra sweep
      CMESOLVE_TRACE_COUNTER("jacobi.residual", out.residual);
      obs::observe("jacobi.residual", out.residual);
      obs::flight("jacobi.residual", obs::FlightKind::kResidual, it,
                  out.residual);
      if (opt.on_residual) opt.on_residual(it, out.residual);
      if (history_cap > 0) {
        if (check_number % out.history_stride == 0) {
          if (out.residual_history.size() >= history_cap) {
            // Full: keep every 2nd surviving sample and double the stride —
            // the buffer stays bounded while spanning the whole solve.
            std::size_t w = 0;
            for (std::size_t r = 0; r < out.residual_history.size(); r += 2) {
              out.residual_history[w++] = out.residual_history[r];
            }
            out.residual_history.resize(w);
            out.history_stride *= 2;
          }
          if (check_number % out.history_stride == 0) {
            out.residual_history.push_back({it, out.residual});
          }
        }
        ++check_number;
      }

      if (out.residual <= opt.eps) {
        out.reason = StopReason::kConverged;
        break;
      }
      // prev_residual > 0 (not >= 0): the relative-change quotient is
      // undefined at zero, and a zero previous residual would have stopped
      // the solve as converged already.
      if (prev_residual > 0.0 &&
          std::abs(out.residual - prev_residual) / prev_residual <=
              opt.stagnation_eps) {
        obs::flight("jacobi.stagnation", obs::FlightKind::kStagnation, it,
                    std::abs(out.residual - prev_residual) / prev_residual);
        if (++flat_checks >= opt.stagnation_patience) {
          out.reason = StopReason::kStagnated;
          break;
        }
      } else {
        flat_checks = 0;
      }
      prev_residual = out.residual;
    }
  }

  normalize_l1(x);
  out.seconds = timer.seconds();
  out.gflops = out.seconds > 0
                   ? static_cast<real_t>(out.flops) / out.seconds / 1.0e9
                   : 0.0;
  obs::flight("jacobi.stop", obs::FlightKind::kStop, out.iterations,
              static_cast<double>(out.reason));
  if (out.reason != StopReason::kConverged && obs::flight_enabled()) {
    // Arm the post mortem: write_report() dumps the recorded trajectory
    // into the run report's "flight" section for this failed solve.
    obs::FlightRecorder::instance().mark_post_mortem(to_string(out.reason));
  }
  // Deterministic outcome metrics; host wall-clock goes to the volatile
  // section of the run report (it cannot be bit-identical run-to-run).
  obs::count("jacobi.solves");
  obs::gauge("jacobi.iterations", static_cast<real_t>(out.iterations));
  obs::gauge("jacobi.residual.final", out.residual);
  obs::gauge("jacobi.converged",
             out.reason == StopReason::kConverged ? 1.0 : 0.0);
  obs::gauge("jacobi.flops", static_cast<real_t>(out.flops));
  obs::gauge("jacobi.seconds", out.seconds, /*is_volatile=*/true);
  obs::gauge("jacobi.gflops", out.gflops, /*is_volatile=*/true);
  return out;
}

}  // namespace cmesolve::solver
