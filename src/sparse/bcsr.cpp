#include "sparse/bcsr.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <stdexcept>

#include "util/parallel.hpp"

namespace cmesolve::sparse {

Bcsr bcsr_from_csr(const Csr& m, int block_rows, int block_cols) {
  if (block_rows <= 0 || block_cols <= 0) {
    throw std::invalid_argument("bcsr_from_csr: block dims must be positive");
  }
  Bcsr b;
  b.nrows = m.nrows;
  b.ncols = m.ncols;
  b.block_rows = block_rows;
  b.block_cols = block_cols;
  b.nblock_rows = (m.nrows + block_rows - 1) / block_rows;
  b.nnz = m.nnz();

  const std::size_t block_slots =
      static_cast<std::size_t>(block_rows) * static_cast<std::size_t>(block_cols);

  b.block_row_ptr.reserve(static_cast<std::size_t>(b.nblock_rows) + 1);
  b.block_row_ptr.push_back(0);

  // Per block-row: gather the touched block columns, then fill.
  std::map<index_t, std::vector<real_t>> blocks;  // ordered by block col
  for (index_t br = 0; br < b.nblock_rows; ++br) {
    blocks.clear();
    const index_t row0 = br * block_rows;
    const index_t row1 = std::min<index_t>(row0 + block_rows, m.nrows);
    for (index_t r = row0; r < row1; ++r) {
      for (index_t p = m.row_ptr[r]; p < m.row_ptr[r + 1]; ++p) {
        const index_t bc = m.col_idx[p] / block_cols;
        auto [it, inserted] = blocks.try_emplace(bc);
        if (inserted) it->second.assign(block_slots, 0.0);
        const std::size_t local =
            static_cast<std::size_t>(r - row0) * block_cols +
            static_cast<std::size_t>(m.col_idx[p] - bc * block_cols);
        it->second[local] += m.val[p];
      }
    }
    for (auto& [bc, data] : blocks) {
      b.block_col.push_back(bc);
      b.val.insert(b.val.end(), data.begin(), data.end());
    }
    b.block_row_ptr.push_back(static_cast<index_t>(b.block_col.size()));
  }
  return b;
}

Csr csr_from_bcsr(const Bcsr& m) {
  Coo coo;
  coo.nrows = m.nrows;
  coo.ncols = m.ncols;
  const std::size_t slots =
      static_cast<std::size_t>(m.block_rows) * static_cast<std::size_t>(m.block_cols);
  for (index_t br = 0; br < m.nblock_rows; ++br) {
    for (index_t bp = m.block_row_ptr[br]; bp < m.block_row_ptr[br + 1]; ++bp) {
      const index_t col0 = m.block_col[bp] * m.block_cols;
      const real_t* data = m.val.data() + static_cast<std::size_t>(bp) * slots;
      for (int lr = 0; lr < m.block_rows; ++lr) {
        const index_t r = br * m.block_rows + lr;
        if (r >= m.nrows) break;
        for (int lc = 0; lc < m.block_cols; ++lc) {
          const index_t c = col0 + lc;
          const real_t v = data[static_cast<std::size_t>(lr) * m.block_cols + lc];
          if (c < m.ncols && v != 0.0) coo.add(r, c, v);
        }
      }
    }
  }
  return csr_from_coo(std::move(coo));
}

void spmv(const Bcsr& m, std::span<const real_t> x, std::span<real_t> y) {
  assert(x.size() == static_cast<std::size_t>(m.ncols));
  assert(y.size() == static_cast<std::size_t>(m.nrows));
  const std::size_t slots =
      static_cast<std::size_t>(m.block_rows) * static_cast<std::size_t>(m.block_cols);
  // Block-row parallel (one thread per block row of y) — thread-count
  // independent; acc[] is stack-private to each iteration.
  const index_t* brp = m.block_row_ptr.data();
  const index_t* bcol = m.block_col.data();
  const real_t* pval = m.val.data();
  const real_t* px = x.data();
  real_t* py = y.data();
  const index_t nblock_rows = m.nblock_rows;
  util::omp_parallel_rows(index_t{0}, nblock_rows, [&](index_t br) {
    real_t acc[16] = {};  // supports block_rows up to 16
    assert(m.block_rows <= 16);
    for (index_t bp = brp[br]; bp < brp[br + 1]; ++bp) {
      const index_t col0 = bcol[bp] * m.block_cols;
      const real_t* data = pval + static_cast<std::size_t>(bp) * slots;
      for (int lr = 0; lr < m.block_rows; ++lr) {
        real_t sum = 0.0;
        for (int lc = 0; lc < m.block_cols; ++lc) {
          const index_t c = col0 + lc;
          if (c < m.ncols) {
            sum += data[static_cast<std::size_t>(lr) * m.block_cols + lc] * px[c];
          }
        }
        acc[lr] += sum;
      }
    }
    for (int lr = 0; lr < m.block_rows; ++lr) {
      const index_t r = br * m.block_rows + lr;
      if (r < m.nrows) py[r] = acc[lr];
    }
  });
}

}  // namespace cmesolve::sparse
