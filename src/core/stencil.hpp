#pragma once
//
// Per-reaction stencil extraction for the matrix-free CME operator.
//
// The paper's format work (Tables II-IV) exploits the observation that DFS
// enumeration turns most of A into a few dense {-1,0,+1} diagonals. The
// logical endpoint is to stop storing A entirely: in a mixed-radix indexing
// of the state box every reaction k moves the row index by a CONSTANT
// stride
//     stride_k = sum_d delta_k[s_d] * w_d
// (w_d = mixed-radix digit weights), and the corresponding matrix entry is
// the mass-action propensity, recomputable from the decoded copy numbers.
// A(i, i - stride_k) = A_k(x_i - delta_k) — one DIA-style diagonal per
// reaction whose values are evaluated on the fly.
//
// Conservation-law elimination: enumerating the full capacity box would
// cover many states no trajectory can reach (the futile cycle conserves
// three independent weighted sums, making the naive box ~100x too large).
// Construction finds every integer conservation law
//     x_e + sum_j c_j x_j = total            (c_j integer, pivot species e)
// via exact rational elimination of the reaction delta matrix, fixes the
// totals from an anchor state, and drops each pivot species e from the
// indexing — its copy number is derived from the free digits at decode
// time. Box rows whose derived counts leave [0, capacity] are *masked*:
// they carry no matrix entries and their diagonal is a -1 sentinel so the
// Jacobi zero-diagonal guard never fires on unreachable padding.
//
// This header is the core support layer: solver::StencilOperator compiles
// the tables into the fast sweep, gpusim::simulate_spmv_stencil replays
// them through the GPU traffic model.
//
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/reaction_network.hpp"
#include "util/types.hpp"

namespace cmesolve::core {

/// One integer conservation law in solved form:
///   x[species] = total - sum_t coeff_t * x[term_t.species]
/// where every term references a free (indexed) species.
struct ConservationLaw {
  struct Term {
    int species = 0;
    std::int64_t coeff = 0;
  };
  int species = 0;          ///< derived (eliminated) species
  std::int64_t total = 0;   ///< invariant value, fixed by the anchor state
  std::vector<Term> terms;
};

/// Inclusive copy-number window: the stencil term applies only when
/// lo <= x[species] <= hi. Windows equal to the full [0, capacity] range
/// are dropped at build time.
struct StencilCheck {
  int species = 0;
  std::int32_t lo = 0;
  std::int32_t hi = 0;
};

/// One mass-action factor binomial(x[species] + shift, copies). The
/// predecessor direction bakes shift = -delta so the factor reads the
/// source-state copy number from the destination row's counts.
struct StencilFactor {
  int species = 0;
  std::int32_t shift = 0;
  std::int32_t copies = 1;
};

/// Everything needed to apply one reaction as a matrix diagonal.
struct StencilReaction {
  int reaction = 0;        ///< index in the source network
  std::int64_t stride = 0; ///< successor row = row + stride (never 0)
  real_t rate = 0.0;
  /// Predecessor direction, evaluated at destination row state x_i:
  /// A(i, i - stride) = rate * prod binomial(x_i[s] + shift, copies) when
  /// every in_check passes (and row i itself is valid).
  std::vector<StencilCheck> in_checks;
  std::vector<StencilFactor> in_factors;
  /// Successor direction, evaluated at source row state x_j: the outflow
  /// rate feeding the diagonal, mirroring ReactionNetwork::applicable.
  std::vector<StencilCheck> out_checks;
  std::vector<StencilFactor> out_factors;
};

/// Precomputed stencil geometry + per-row diagonal for one (network,
/// anchor state) pair. Immutable after construction; cheap to copy by
/// move. Construction throws std::invalid_argument when the reduced box
/// still exceeds index_t, and publishes the stencil.* metrics.
class StencilTable {
 public:
  StencilTable(const ReactionNetwork& network, const State& anchor);

  /// Rebind: share every structural table of `base` — conservation laws,
  /// mixed-radix geometry, per-reaction strides/windows/factors — and swap
  /// in new rate constants (indexed by NETWORK reaction id, size
  /// network().num_reactions()). Only the per-row diagonal is recomputed;
  /// enumeration and elimination are never repeated. This is what makes a
  /// parameter ensemble share one structural build.
  ///
  /// Every compiled reaction's new rate must be finite and > 0, and the
  /// base must not have dropped any reaction for a non-positive rate
  /// (the dropped reaction's stencil was never compiled, so no rate can
  /// revive it); violations throw std::invalid_argument. Sparsity and row
  /// masking are therefore rate-independent across rebinds.
  StencilTable(const StencilTable& base, std::span<const real_t> rates);

  [[nodiscard]] const ReactionNetwork& network() const noexcept {
    return *network_;
  }
  [[nodiscard]] const State& anchor() const noexcept { return anchor_; }
  [[nodiscard]] int num_species() const noexcept { return num_species_; }

  /// Rows of the conservation-reduced state box (= product of free-species
  /// radices). Every reachable state of the anchor's conservation class
  /// maps to exactly one row.
  [[nodiscard]] index_t box_rows() const noexcept { return box_rows_; }

  [[nodiscard]] int num_free() const noexcept {
    return static_cast<int>(free_species_.size());
  }
  /// Digit d (0 = slowest, num_free()-1 = fastest, weight 1).
  [[nodiscard]] int free_species(int d) const {
    return free_species_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] std::int32_t radix(int d) const {
    return radix_[static_cast<std::size_t>(d)];
  }
  [[nodiscard]] std::int64_t weight(int d) const {
    return weight_[static_cast<std::size_t>(d)];
  }

  [[nodiscard]] const std::vector<ConservationLaw>& laws() const noexcept {
    return laws_;
  }
  /// Compiled reactions: network order, null transitions dropped.
  [[nodiscard]] const std::vector<StencilReaction>& reactions() const noexcept {
    return reactions_;
  }

  /// Box row of a microstate; -1 when x lies outside the capacity box or
  /// violates a conservation total (wrong conservation class).
  [[nodiscard]] index_t box_index(StateView x) const;

  /// Decode a box row into copy numbers for EVERY species (derived counts
  /// may fall outside [0, capacity] on masked rows; see row_valid).
  void decode(index_t row, State& x) const;

  /// True when every derived count of x lies inside [0, capacity]. Free
  /// digits are in range by construction.
  [[nodiscard]] bool row_valid(const State& x) const;

  /// Off-diagonal value A(row(x), row(x) - r.stride) for a decoded row
  /// state x. Assumes x itself is a valid row; returns 0 when the
  /// predecessor is invalid or the propensity vanishes. Exactly
  /// r.rate * unit_in_propensity(r, x) — rate-last, so the value is
  /// bitwise linear in the rate constant.
  [[nodiscard]] real_t in_propensity(const StencilReaction& r,
                                     const State& x) const;
  /// The rate-independent combinatorial part of in_propensity (windows
  /// applied, binomial factors multiplied onto 1.0). Shared across every
  /// rebind of this structure; the batched operator caches it once per
  /// (reaction, row) for a whole parameter ensemble.
  [[nodiscard]] real_t unit_in_propensity(const StencilReaction& r,
                                          const State& x) const;

  /// Outflow rate of reaction r at row state x: positive exactly when the
  /// reaction is applicable (successor stays in the box). Exactly
  /// r.rate * unit_out_propensity(r, x).
  [[nodiscard]] real_t out_propensity(const StencilReaction& r,
                                      const State& x) const;
  /// Rate-independent combinatorial part of out_propensity.
  [[nodiscard]] real_t unit_out_propensity(const StencilReaction& r,
                                           const State& x) const;

  /// Diagonal over the box: -sum_k out_propensity for valid rows with
  /// positive outflow, -1 sentinel on masked rows (invalid derived counts,
  /// or zero outflow).
  [[nodiscard]] std::span<const real_t> diag() const noexcept { return diag_; }

  /// Off-diagonal entries the stencil sweep evaluates (valid transitions).
  [[nodiscard]] std::size_t offdiag_nnz() const noexcept {
    return offdiag_nnz_;
  }
  /// Box rows with the -1 diagonal sentinel.
  [[nodiscard]] index_t rows_masked() const noexcept { return rows_masked_; }

  /// Modeled per-sweep memory traffic of the matrix-free kernel: one
  /// x-read per off-diagonal entry plus one y-write per row, no value or
  /// index streams (state decode is pure arithmetic). Uncached lower
  /// bound; gpusim::simulate_spmv_stencil runs the cache-aware model.
  [[nodiscard]] std::size_t bytes_modeled() const noexcept {
    return sizeof(real_t) *
           (offdiag_nnz_ + static_cast<std::size_t>(box_rows_));
  }

 private:
  void detect_laws();
  void build_geometry();
  void compile_reactions();
  void build_diagonal();

  const ReactionNetwork* network_;
  State anchor_;
  int num_species_ = 0;

  std::vector<ConservationLaw> laws_;
  std::vector<int> free_species_;     ///< digit -> species id
  std::vector<std::int32_t> radix_;   ///< capacity + 1 per digit
  std::vector<std::int64_t> weight_;  ///< mixed-radix digit weights
  index_t box_rows_ = 0;

  std::vector<StencilReaction> reactions_;
  std::vector<real_t> diag_;
  std::size_t offdiag_nnz_ = 0;
  index_t rows_masked_ = 0;
  /// Reactions with a real (non-null) transition that compile_reactions
  /// dropped only because their rate was <= 0. A table with any such drop
  /// cannot be rebound: the structure is incomplete for positive rates.
  int rate_dropped_ = 0;
};

}  // namespace cmesolve::core
