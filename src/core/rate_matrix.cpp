#include "core/rate_matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/parallel.hpp"

namespace cmesolve::core {

namespace {

/// States per assembly chunk. Fixed (thread-count independent) so the
/// triplet stream below is always concatenated in the same order.
constexpr index_t kAssemblyChunk = 2048;

}  // namespace

sparse::Csr rate_matrix(const StateSpace& space) {
  CMESOLVE_TRACE_SPAN("core.rate_matrix");
  if (space.truncated()) {
    throw std::runtime_error(
        "rate_matrix: state space truncated; raise max_states");
  }
  const ReactionNetwork& net = space.network();
  const index_t n = space.size();
  const int nr = net.num_reactions();

  // Propensity evaluation and successor lookup dominate assembly time and
  // are independent per source state, so states are carved into fixed
  // chunks, each chunk fills a private triplet buffer, and the buffers are
  // concatenated in chunk order — the exact triplet sequence the serial
  // loop would emit, hence an identical CSR after sort_and_combine.
  // (StateSpace::find is a const hash lookup, safe for concurrent reads.)
  const index_t nchunks = n > 0 ? (n + kAssemblyChunk - 1) / kAssemblyChunk : 0;
  std::vector<sparse::Coo> parts(static_cast<std::size_t>(nchunks));

  util::parallel_tasks(static_cast<int>(nchunks), [&](int c) {
    const index_t j0 = static_cast<index_t>(c) * kAssemblyChunk;
    const index_t j1 = std::min<index_t>(j0 + kAssemblyChunk, n);
    sparse::Coo& part = parts[static_cast<std::size_t>(c)];
    // Every state emits at most one triplet per reaction plus its diagonal,
    // so this reserve is an exact upper bound: the fill pass below never
    // reallocates, whatever the network density.
    part.reserve(static_cast<std::size_t>(j1 - j0) *
                 static_cast<std::size_t>(nr + 1));
    State next(static_cast<std::size_t>(net.num_species()));
    for (index_t j = j0; j < j1; ++j) {
      const StateView x = space.counts(j);
      real_t out_rate = 0.0;
      for (int k = 0; k < nr; ++k) {
        if (!net.within_capacity(k, x)) continue;
        const real_t a = net.propensity(k, x);
        if (a <= 0.0) continue;
        net.apply_into(k, x, next);
        const index_t i = space.find(next);
        if (i < 0) {
          throw std::logic_error("rate_matrix: successor not enumerated");
        }
        if (i == j) continue;  // null transition (no net state change)
        part.add(i, j, a);
        out_rate += a;
      }
      part.add(j, j, -out_rate);
    }
  });

  sparse::Coo coo;
  coo.nrows = n;
  coo.ncols = n;
  std::size_t total = 0;
  for (const sparse::Coo& part : parts) total += part.nnz();
  coo.reserve(total);
  for (sparse::Coo& part : parts) {
    coo.row.insert(coo.row.end(), part.row.begin(), part.row.end());
    coo.col.insert(coo.col.end(), part.col.begin(), part.col.end());
    coo.val.insert(coo.val.end(), part.val.begin(), part.val.end());
    part = sparse::Coo{};  // release chunk memory eagerly
  }
  sparse::Csr csr = sparse::csr_from_coo(std::move(coo));
  obs::count("core.rate_matrix.assemblies");
  obs::observe("core.rate_matrix.nnz", static_cast<real_t>(csr.nnz()));
  obs::gauge("core.rate_matrix.last.rows", static_cast<real_t>(csr.nrows));
  obs::gauge("core.rate_matrix.last.nnz", static_cast<real_t>(csr.nnz()));
  return csr;
}

// ---------------------------------------------------------------------------
// ProjectedRateMatrix
// ---------------------------------------------------------------------------
ProjectedRateMatrix::ProjectedRateMatrix(const ReactionNetwork& network)
    : network_(&network), num_species_(network.num_species()) {
  stencil_ptr_.push_back(0);
}

void ProjectedRateMatrix::extend(const DynamicStateSpace& space) {
  CMESOLVE_TRACE_SPAN("core.projected.extend");
  const index_t old_n = cached_states();
  const index_t n = space.size();
  if (n < old_n) {
    throw std::logic_error(
        "ProjectedRateMatrix::extend: space shrank without compact()");
  }
  if (n == old_n) return;
  const int nr = network_->num_reactions();

  // Per-state stencils are independent, so new states are carved into fixed
  // chunks whose private buffers are concatenated in chunk order — the same
  // stencil stream a serial loop would emit at any thread count.
  struct Chunk {
    std::vector<std::size_t> len;
    std::vector<std::int32_t> succ_state;
    std::vector<real_t> succ_rate;
    std::vector<real_t> total_rate;
  };
  const index_t added = n - old_n;
  const index_t nchunks = (added + kAssemblyChunk - 1) / kAssemblyChunk;
  std::vector<Chunk> chunks(static_cast<std::size_t>(nchunks));

  util::parallel_tasks(static_cast<int>(nchunks), [&](int c) {
    const index_t j0 = old_n + static_cast<index_t>(c) * kAssemblyChunk;
    const index_t j1 = std::min<index_t>(j0 + kAssemblyChunk, n);
    Chunk& chunk = chunks[static_cast<std::size_t>(c)];
    State next(static_cast<std::size_t>(num_species_));
    for (index_t j = j0; j < j1; ++j) {
      const StateView x = space.counts(j);
      std::size_t len = 0;
      real_t total = 0.0;
      for (int k = 0; k < nr; ++k) {
        if (!network_->within_capacity(k, x)) continue;
        const real_t a = network_->propensity(k, x);
        if (a <= 0.0) continue;
        network_->apply_into(k, x, next);
        // A null transition cancels in the generator.
        if (std::equal(next.begin(), next.end(), x.begin())) continue;
        chunk.succ_state.insert(chunk.succ_state.end(), next.begin(),
                                next.end());
        chunk.succ_rate.push_back(a);
        total += a;
        ++len;
      }
      chunk.len.push_back(len);
      chunk.total_rate.push_back(total);
    }
  });

  for (Chunk& chunk : chunks) {
    for (std::size_t i = 0; i < chunk.len.size(); ++i) {
      stencil_ptr_.push_back(stencil_ptr_.back() + chunk.len[i]);
      total_rate_.push_back(chunk.total_rate[i]);
    }
    succ_state_.insert(succ_state_.end(), chunk.succ_state.begin(),
                       chunk.succ_state.end());
    succ_rate_.insert(succ_rate_.end(), chunk.succ_rate.begin(),
                      chunk.succ_rate.end());
    chunk = Chunk{};
  }
  obs::count("core.projected.extends");
  obs::count("core.projected.states_cached",
             static_cast<std::uint64_t>(added));
}

void ProjectedRateMatrix::compact(const std::vector<index_t>& remap) {
  CMESOLVE_TRACE_SPAN("core.projected.compact");
  const auto old_n = static_cast<std::size_t>(cached_states());
  if (remap.size() != old_n) {
    throw std::invalid_argument("ProjectedRateMatrix::compact: remap size");
  }
  const auto ns = static_cast<std::size_t>(num_species_);
  std::vector<std::size_t> new_ptr{0};
  std::vector<std::int32_t> new_succ;
  std::vector<real_t> new_rate;
  std::vector<real_t> new_total;
  for (std::size_t j = 0; j < old_n; ++j) {
    if (remap[j] < 0) continue;
    // compact() preserves relative order, so appending in old-index order
    // lands each survivor at its new index.
    const std::size_t b = stencil_ptr_[j];
    const std::size_t e = stencil_ptr_[j + 1];
    new_succ.insert(new_succ.end(), succ_state_.begin() + static_cast<std::ptrdiff_t>(b * ns),
                    succ_state_.begin() + static_cast<std::ptrdiff_t>(e * ns));
    new_rate.insert(new_rate.end(), succ_rate_.begin() + static_cast<std::ptrdiff_t>(b),
                    succ_rate_.begin() + static_cast<std::ptrdiff_t>(e));
    new_ptr.push_back(new_ptr.back() + (e - b));
    new_total.push_back(total_rate_[j]);
  }
  stencil_ptr_ = std::move(new_ptr);
  succ_state_ = std::move(new_succ);
  succ_rate_ = std::move(new_rate);
  total_rate_ = std::move(new_total);
}

ProjectedRateMatrix::Assembly ProjectedRateMatrix::assemble(
    const DynamicStateSpace& space, index_t return_state) const {
  CMESOLVE_TRACE_SPAN("core.projected.assemble");
  const index_t n = space.size();
  if (cached_states() != n) {
    throw std::logic_error(
        "ProjectedRateMatrix::assemble: stencil cache out of sync; call "
        "extend()/compact() after every space mutation");
  }
  if (return_state < 0 || return_state >= n) {
    throw std::invalid_argument(
        "ProjectedRateMatrix::assemble: return_state not a member");
  }

  Assembly out;
  out.outflow.assign(static_cast<std::size_t>(n), 0.0);

  const index_t nchunks = n > 0 ? (n + kAssemblyChunk - 1) / kAssemblyChunk : 0;
  std::vector<sparse::Coo> parts(static_cast<std::size_t>(nchunks));

  util::parallel_tasks(static_cast<int>(nchunks), [&](int c) {
    const index_t j0 = static_cast<index_t>(c) * kAssemblyChunk;
    const index_t j1 = std::min<index_t>(j0 + kAssemblyChunk, n);
    sparse::Coo& part = parts[static_cast<std::size_t>(c)];
    // Exact capacity from the stencil cache: each row emits its cached
    // successors plus at most a leak redirect and the diagonal.
    part.reserve(stencil_ptr_[static_cast<std::size_t>(j1)] -
                 stencil_ptr_[static_cast<std::size_t>(j0)] +
                 2 * static_cast<std::size_t>(j1 - j0));
    for (index_t j = j0; j < j1; ++j) {
      const std::size_t b = stencil_ptr_[static_cast<std::size_t>(j)];
      const std::size_t e = stencil_ptr_[static_cast<std::size_t>(j) + 1];
      real_t leaked = 0.0;
      for (std::size_t s = b; s < e; ++s) {
        const real_t a = succ_rate_[s];
        const index_t i = space.find(successor(s));
        if (i >= 0) {
          part.add(i, j, a);
        } else {
          leaked += a;
        }
      }
      // Redirect the leaked flux to the return state (a j->j redirect is a
      // self-loop, which cancels against the diagonal).
      if (leaked > 0.0 && return_state != j) {
        part.add(return_state, j, leaked);
      }
      const real_t diag = -(total_rate_[static_cast<std::size_t>(j)] -
                            (return_state == j ? leaked : 0.0));
      part.add(j, j, diag);
      out.outflow[static_cast<std::size_t>(j)] = leaked;
    }
  });

  sparse::Coo coo;
  coo.nrows = n;
  coo.ncols = n;
  std::size_t total = 0;
  for (const sparse::Coo& part : parts) total += part.nnz();
  coo.reserve(total);
  for (sparse::Coo& part : parts) {
    coo.row.insert(coo.row.end(), part.row.begin(), part.row.end());
    coo.col.insert(coo.col.end(), part.col.begin(), part.col.end());
    coo.val.insert(coo.val.end(), part.val.begin(), part.val.end());
    part = sparse::Coo{};
  }
  out.a = sparse::csr_from_coo(std::move(coo));
  obs::count("core.projected.assemblies");
  obs::gauge("core.projected.last.rows", static_cast<real_t>(out.a.nrows));
  obs::gauge("core.projected.last.nnz", static_cast<real_t>(out.a.nnz()));
  return out;
}

ProjectedRateMatrix::Assembly ProjectedRateMatrix::assemble_absorbing(
    const DynamicStateSpace& space) const {
  CMESOLVE_TRACE_SPAN("core.projected.assemble_absorbing");
  const index_t n = space.size();
  if (cached_states() != n) {
    throw std::logic_error(
        "ProjectedRateMatrix::assemble_absorbing: stencil cache out of "
        "sync; call extend()/compact() after every space mutation");
  }

  Assembly out;
  out.outflow.assign(static_cast<std::size_t>(n), 0.0);

  const index_t nchunks = n > 0 ? (n + kAssemblyChunk - 1) / kAssemblyChunk : 0;
  std::vector<sparse::Coo> parts(static_cast<std::size_t>(nchunks));

  util::parallel_tasks(static_cast<int>(nchunks), [&](int c) {
    const index_t j0 = static_cast<index_t>(c) * kAssemblyChunk;
    const index_t j1 = std::min<index_t>(j0 + kAssemblyChunk, n);
    sparse::Coo& part = parts[static_cast<std::size_t>(c)];
    part.reserve(stencil_ptr_[static_cast<std::size_t>(j1)] -
                 stencil_ptr_[static_cast<std::size_t>(j0)] +
                 static_cast<std::size_t>(j1 - j0));
    for (index_t j = j0; j < j1; ++j) {
      const std::size_t b = stencil_ptr_[static_cast<std::size_t>(j)];
      const std::size_t e = stencil_ptr_[static_cast<std::size_t>(j) + 1];
      real_t leaked = 0.0;
      for (std::size_t s = b; s < e; ++s) {
        const real_t a = succ_rate_[s];
        const index_t i = space.find(successor(s));
        if (i >= 0) {
          part.add(i, j, a);
        } else {
          leaked += a;
        }
      }
      // The leak stays in the diagonal (column sums to -leaked): dropped
      // flux is absorbed by the implicit sink state, never redirected.
      part.add(j, j, -total_rate_[static_cast<std::size_t>(j)]);
      out.outflow[static_cast<std::size_t>(j)] = leaked;
    }
  });

  sparse::Coo coo;
  coo.nrows = n;
  coo.ncols = n;
  std::size_t total = 0;
  for (const sparse::Coo& part : parts) total += part.nnz();
  coo.reserve(total);
  for (sparse::Coo& part : parts) {
    coo.row.insert(coo.row.end(), part.row.begin(), part.row.end());
    coo.col.insert(coo.col.end(), part.col.begin(), part.col.end());
    coo.val.insert(coo.val.end(), part.val.begin(), part.val.end());
    part = sparse::Coo{};
  }
  out.a = sparse::csr_from_coo(std::move(coo));
  obs::count("core.projected.assemblies");
  obs::gauge("core.projected.last.rows", static_cast<real_t>(out.a.nrows));
  obs::gauge("core.projected.last.nnz", static_cast<real_t>(out.a.nnz()));
  return out;
}

void ProjectedRateMatrix::out_of_set_successors(const DynamicStateSpace& space,
                                                index_t j,
                                                std::vector<State>& out) const {
  const std::size_t b = stencil_ptr_[static_cast<std::size_t>(j)];
  const std::size_t e = stencil_ptr_[static_cast<std::size_t>(j) + 1];
  for (std::size_t s = b; s < e; ++s) {
    const StateView next = successor(s);
    if (space.find(next) < 0) out.emplace_back(next.begin(), next.end());
  }
}

real_t max_column_sum(const sparse::Csr& a) {
  std::vector<real_t> colsum(static_cast<std::size_t>(a.ncols), 0.0);
  for (index_t r = 0; r < a.nrows; ++r) {
    for (index_t p = a.row_ptr[r]; p < a.row_ptr[r + 1]; ++p) {
      colsum[static_cast<std::size_t>(a.col_idx[p])] += a.val[p];
    }
  }
  real_t worst = 0.0;
  for (real_t s : colsum) worst = std::max(worst, std::abs(s));
  return worst;
}

}  // namespace cmesolve::core
