#pragma once
//
// Matrix-free stencil operators for the Jacobi iteration.
//
// Where the operators in operators.hpp wrap a stored format, these apply
// y = (L + U) x directly from the per-reaction stencils compiled by
// core::StencilTable: one DIA-style diagonal per reaction at constant row
// stride, whose values are mass-action propensities evaluated from the
// decoded copy numbers. Nothing of size O(nnz) is ever stored (recompute
// mode) — or, in the propensity-cache variant, exactly one real_t per
// (reaction, row) with no index streams.
//
// Determinism: the sweep runs under util::parallel_for, whose chunk
// boundaries depend on the thread count. Every y[i] is accumulated
// entirely inside the chunk owning row i, in reaction order, and each
// per-term value depends only on (row, reaction) — never on where a chunk
// boundary fell — so results are bit-identical at any thread count.
//
#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/reaction_network.hpp"
#include "core/state_space.hpp"
#include "core/stencil.hpp"
#include "solver/gmres.hpp"
#include "util/aligned_vector.hpp"
#include "util/types.hpp"

namespace cmesolve::solver {

enum class StencilMode {
  kRecompute,        ///< evaluate every propensity inside the sweep
  kPropensityCache,  ///< one cached real_t per (reaction, row)
};

/// Matrix-free off-diagonal operator over the conservation-reduced state
/// box. Satisfies the JacobiOperator concept; vectors are indexed by box
/// row (use scatter_from/gather_to to move between an enumerated state
/// space and the box).
///
/// Masked box rows (StencilTable::rows_masked) carry a -1 diagonal
/// sentinel and no off-diagonal entries: Jacobi leaves them at the value
/// the initial guess assigned, so seed the iteration through
/// scatter_from (mass on reachable states only) — never with a uniform
/// vector over the whole box.
class StencilOperator {
 public:
  explicit StencilOperator(core::StencilTable table,
                           StencilMode mode = StencilMode::kRecompute);
  StencilOperator(const core::ReactionNetwork& network,
                  const core::State& anchor,
                  StencilMode mode = StencilMode::kRecompute);

  [[nodiscard]] index_t nrows() const noexcept { return table_.box_rows(); }
  [[nodiscard]] std::span<const real_t> diag() const noexcept {
    return table_.diag();
  }
  [[nodiscard]] std::size_t offdiag_nnz() const noexcept {
    return table_.offdiag_nnz();
  }
  void multiply(std::span<const real_t> x, std::span<real_t> y) const;

  [[nodiscard]] const core::StencilTable& table() const noexcept {
    return table_;
  }
  [[nodiscard]] StencilMode mode() const noexcept { return mode_; }
  [[nodiscard]] index_t rows_masked() const noexcept {
    return table_.rows_masked();
  }
  /// ||A||_inf of the full generator (diagonal included), computed once at
  /// construction via a ones-vector sweep — the scale jacobi_solve wants.
  [[nodiscard]] real_t inf_norm() const noexcept { return inf_norm_; }
  /// ||A||_inf over the rows of an enumerated space: the norm of
  /// core::rate_matrix(space), from one sweep of the space's indicator
  /// vector. inf_norm() spans the whole box, whose unreachable rows can
  /// carry far larger rates. Throws std::domain_error when a state of the
  /// space is absorbing (a zero diagonal in the assembled matrix), which
  /// the box masks with the -1 sentinel instead.
  [[nodiscard]] real_t space_inf_norm(const core::StateSpace& space) const;

  /// kPropensityCache only: the cached off-diagonal values, reaction-major
  /// (reactions() x box_rows; entry [k * box_rows + src] is the value the
  /// sweep applies from source row src along reaction k). Empty in
  /// recompute mode. The batched ensemble operator builds a UNIT-rate
  /// operator and reads this as the shared combinatorial table.
  [[nodiscard]] std::span<const real_t> propensity_cache() const noexcept {
    return cache_;
  }

  /// Copy per-state values from an enumerated space into the box layout
  /// (rows not covered by the space are zeroed). Every state of `space`
  /// must map into the box (same network, same conservation class).
  void scatter_from(const core::StateSpace& space,
                    std::span<const real_t> from,
                    std::span<real_t> to) const;
  /// Inverse gather: read the box values of the space's states.
  void gather_to(const core::StateSpace& space, std::span<const real_t> from,
                 std::span<real_t> to) const;

 private:
  struct Program;  // compiled per-reaction sweep plans

  void compile();
  void build_cache();
  void compute_inf_norm();
  void sweep_recompute(std::span<const real_t> x, std::span<real_t> y,
                       aligned_vector<real_t>* cache_out) const;
  void sweep_cached(std::span<const real_t> x, std::span<real_t> y) const;

  core::StencilTable table_;
  StencilMode mode_;
  std::shared_ptr<const Program> program_;
  /// kPropensityCache: reaction-major, reactions() x box_rows values;
  /// 64-byte aligned so the SIMD sweep's cache stream starts on a vector
  /// boundary.
  aligned_vector<real_t> cache_;
  real_t inf_norm_ = 0.0;
};

/// Nonsingular-ized steady-state apply over any JacobiOperator-shaped
/// operator with an off-diagonal multiply and a dense diagonal: row
/// `constraint_row` of A is replaced by the normalization row sum_i x_i.
/// The matrix-free twin of steady_state_operator(const sparse::Csr&, ...),
/// so GMRES runs without an assembled matrix.
template <class Op>
[[nodiscard]] LinearOp matrix_free_steady_state_operator(
    const Op& op, index_t constraint_row) {
  return [&op, constraint_row](std::span<const real_t> x,
                               std::span<real_t> y) {
    op.multiply(x, y);
    const auto d = op.diag();
    const auto n = static_cast<std::size_t>(op.nrows());
    real_t sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      y[i] += d[i] * x[i];
      sum += x[i];
    }
    y[static_cast<std::size_t>(constraint_row)] = sum;
  };
}

/// Matrix-free twin of ProjectedRateMatrix::assemble for the FSP inner
/// solve: restricts the stencil sweep to a member set, redirects the
/// out-of-set flux of every member to a designated return member, and
/// masks non-member box rows with the -1 diagonal sentinel. Vectors are
/// box-indexed; member_to_box()/scatter/gather translate.
///
/// Always runs in propensity-cache mode: the FSP round loop rebuilds the
/// operator whenever the member set changes, and the member mask is folded
/// into the cached values (zero for non-member sources and out-of-set
/// targets), so the sweep itself needs no membership tests.
class MaskedStencilOperator {
 public:
  MaskedStencilOperator(const core::StencilTable& table,
                        const core::DynamicStateSpace& space,
                        index_t return_member);

  [[nodiscard]] index_t nrows() const noexcept { return table_->box_rows(); }
  [[nodiscard]] std::span<const real_t> diag() const noexcept {
    return diag_;
  }
  [[nodiscard]] std::size_t offdiag_nnz() const noexcept {
    return offdiag_nnz_;
  }
  void multiply(std::span<const real_t> x, std::span<real_t> y) const;

  [[nodiscard]] real_t inf_norm() const noexcept { return inf_norm_; }
  /// Box row of member j.
  [[nodiscard]] index_t member_to_box(index_t j) const {
    return box_of_[static_cast<std::size_t>(j)];
  }
  /// Out-of-set outflow rate gamma_j of member j (the FSP bound numerator;
  /// includes the return member's own leak, which folds into its diagonal
  /// rather than a redirect).
  [[nodiscard]] real_t outflow(index_t j) const {
    return leak_[static_cast<std::size_t>(box_of_[static_cast<std::size_t>(j)])];
  }

  void scatter_from_members(std::span<const real_t> from,
                            std::span<real_t> to) const;
  void gather_to_members(std::span<const real_t> from,
                         std::span<real_t> to) const;

 private:
  const core::StencilTable* table_;
  index_t members_ = 0;
  index_t return_box_ = 0;
  std::vector<index_t> box_of_;       ///< member -> box row
  aligned_vector<real_t> cache_;      ///< reaction-major masked propensities
  aligned_vector<real_t> leak_;       ///< gamma over box rows (0 off-members)
  aligned_vector<real_t> diag_;
  std::size_t offdiag_nnz_ = 0;
  real_t inf_norm_ = 0.0;
};

}  // namespace cmesolve::solver
