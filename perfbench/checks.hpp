#pragma once
//
// Output check shared by the workloads.
//
#include <cstddef>
#include <span>
#include <vector>

#include "solver/operators.hpp"
#include "solver/vector_ops.hpp"
#include "sparse/csr.hpp"

namespace perfbench {

/// ||A p||_inf / (||A||_inf ||p||_inf) on an assembled generator: the
/// normalized residual jacobi_solve stops on, recomputed independently of
/// the operator that produced p.
inline double csr_residual(const cmesolve::sparse::Csr& a,
                           std::span<const cmesolve::real_t> p) {
  const cmesolve::solver::CsrOperator csr(a);
  std::vector<cmesolve::real_t> r(p.size());
  csr.multiply(p, r);
  const auto d = csr.diag();
  for (std::size_t i = 0; i < p.size(); ++i) r[i] += d[i] * p[i];
  return cmesolve::solver::norm_inf(r) /
         (a.inf_norm() * cmesolve::solver::norm_inf(p));
}

}  // namespace perfbench
