#include "solver/stencil_operator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/trace.hpp"
#include "solver/vector_ops.hpp"
#include "util/binomial.hpp"
#include "util/parallel.hpp"
#include "util/simd_kernels.hpp"

namespace cmesolve::solver {

namespace {

// Floor/ceil division for the t-interval solves (slopes may be negative).
std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}
std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) == (b < 0))) ++q;
  return q;
}

constexpr std::size_t kSweepGrain = 4096;

}  // namespace

// Compiled sweep plan. The box is processed as TILES of rj x rf
// consecutive rows spanning the two fastest digits (j = second-fastest,
// t = fastest): within a tile every copy number is an affine function of
// the two digits,
//     count_s(j, t) = base_s(tile) + sJ_s * j + sT_s * t
// (slope 1 for the digit's own species, -coeff for a derived species whose
// law contains that digit, 0 otherwise), so each check becomes a j- or
// t-interval and each propensity factor a lookup at an affine table index.
// Per-reaction work that depends only on the slow digits — applicability
// windows, run-constant propensity factors — is evaluated once per tile
// and amortised over rf*rj rows instead of rf, and the per-j coefficient
// kj factors out of the innermost t-loop, leaving a rank-1 update
//     y[dst0 + t] += kj * tbl[b + t] * x[src0 + t]
// over contiguous rows that the compiler can vectorise. Every value
// depends only on (row, reaction), never on where a parallel_for chunk
// boundary fell — which is what keeps the sweep bit-identical at any
// thread count.
struct StencilOperator::Program {
  struct Factor {
    const real_t* tbl = nullptr;  ///< binomial table for this copy count
    int sp = 0;
    std::int32_t shift = 0;
    std::int32_t sJ = 0;  ///< per-j argument step (0 for pure t-factors)
    std::int32_t sT = 0;  ///< per-t argument step
  };
  struct Check {
    int sp = 0;
    std::int32_t lo = 0;
    std::int32_t hi = 0;
    std::int32_t sJ = 0;
    std::int32_t sT = 0;
  };
  struct Reaction {
    std::int64_t stride = 0;
    real_t rate = 0.0;
    std::vector<Check> const_checks;  ///< sJ == sT == 0: once per tile
    std::vector<Check> j_checks;      ///< sT == 0, sJ != 0: j-interval
    std::vector<Check> tj0_checks;    ///< sT != 0, sJ == 0: one t-interval
    std::vector<Check> tjv_checks;    ///< sT != 0, sJ != 0: per-j t-interval
    std::vector<Factor> const_factors;
    std::vector<Factor> j_factors;  ///< folded into the per-j coefficient
    std::vector<Factor> t_factors;  ///< table walks inside the t-loop
    /// Precomputed rf x rj coefficient pattern (row-major in (j, t)) for
    /// reactions whose fast-digit dependence lives entirely on the two
    /// digit species themselves: windows fold in as zeros and the sweep
    /// applies the tile as ONE contiguous multiply-add instead of rj
    /// separate windowed loops. Empty when the reaction does not qualify
    /// or the tile would not stay cache-resident.
    std::vector<real_t> tile_coef;
  };
  /// Row-validity check of one conservation law, hoisted out of the
  /// per-reaction lists: the law's derived count must sit in [0, cap] for
  /// the row to exist at all, identically for every reaction, so masked
  /// rows are rejected once per tile instead of once per reaction.
  struct LawCheck {
    int sp = 0;
    std::int32_t cap = 0;
    std::int32_t sJ = 0;
    std::int32_t sT = 0;
  };

  int num_species = 0;
  std::int64_t rf = 1;  ///< fastest-digit radix = t-loop length
  std::int64_t rj = 1;  ///< second-fastest radix = j-loop length
  std::vector<std::int32_t> slope_t;       ///< per species
  std::vector<std::int32_t> slope_j;       ///< per species
  std::vector<std::vector<real_t>> binom;  ///< [copies][count]
  std::vector<Reaction> rx;
  std::vector<LawCheck> const_laws;  ///< tile-constant row validity
  std::vector<LawCheck> j_laws;      ///< j-dependent row validity
  std::vector<LawCheck> t_laws;      ///< t-dependent row validity
};

StencilOperator::StencilOperator(core::StencilTable table, StencilMode mode)
    : table_(std::move(table)), mode_(mode) {
  compile();
  compute_inf_norm();
  if (mode_ == StencilMode::kPropensityCache) build_cache();
}

StencilOperator::StencilOperator(const core::ReactionNetwork& network,
                                 const core::State& anchor, StencilMode mode)
    : StencilOperator(core::StencilTable(network, anchor), mode) {}

void StencilOperator::compile() {
  auto p = std::make_shared<Program>();
  Program& P = *p;
  const core::StencilTable& t = table_;
  const int m = t.num_free();
  P.num_species = t.num_species();
  P.rf = m > 0 ? t.radix(m - 1) : 1;
  P.rj = m > 1 ? t.radix(m - 2) : 1;

  P.slope_t.assign(static_cast<std::size_t>(P.num_species), 0);
  P.slope_j.assign(static_cast<std::size_t>(P.num_species), 0);
  const auto digit_slopes = [&](int d, std::vector<std::int32_t>& slope) {
    const int sp = t.free_species(d);
    slope[static_cast<std::size_t>(sp)] = 1;
    for (const auto& law : t.laws()) {
      for (const auto& term : law.terms) {
        if (term.species == sp) {
          slope[static_cast<std::size_t>(law.species)] =
              static_cast<std::int32_t>(-term.coeff);
        }
      }
    }
  };
  if (m > 0) digit_slopes(m - 1, P.slope_t);
  if (m > 1) digit_slopes(m - 2, P.slope_j);

  // Binomial lookup tables, one per reactant copy count. Table arguments
  // are predecessor copy numbers, which the compiled windows confine to
  // [0, capacity], so [0, max capacity] covers every access.
  std::int32_t max_cap = 0;
  for (int s = 0; s < P.num_species; ++s) {
    max_cap = std::max(max_cap, t.network().capacity(s));
  }
  std::int32_t max_copies = 1;
  for (const auto& r : t.reactions()) {
    for (const auto& f : r.in_factors) {
      max_copies = std::max(max_copies, f.copies);
    }
  }
  P.binom.assign(static_cast<std::size_t>(max_copies) + 1, {});
  for (std::int32_t c = 0; c <= max_copies; ++c) {
    auto& tbl = P.binom[static_cast<std::size_t>(c)];
    tbl.resize(static_cast<std::size_t>(max_cap) + 1);
    for (std::int32_t v = 0; v <= max_cap; ++v) {
      tbl[static_cast<std::size_t>(v)] = cmesolve::binomial(v, c);
    }
  }

  // Row validity is a property of the row, not of a reaction: every law's
  // derived count must land in [0, cap]. Hoisting these checks to tile
  // level means a masked row is rejected once instead of once per
  // reaction (and the reactions' own windows, all clamped to [0, cap] at
  // table build, stay sufficient on the rows that survive).
  const auto sj = [&](int sp) { return P.slope_j[static_cast<std::size_t>(sp)]; };
  const auto st = [&](int sp) { return P.slope_t[static_cast<std::size_t>(sp)]; };
  for (const auto& law : t.laws()) {
    const Program::LawCheck lc{law.species,
                               t.network().capacity(law.species),
                               sj(law.species), st(law.species)};
    (lc.sT != 0 ? P.t_laws : lc.sJ != 0 ? P.j_laws : P.const_laws)
        .push_back(lc);
  }

  for (const auto& r : t.reactions()) {
    Program::Reaction pr;
    pr.stride = r.stride;
    pr.rate = r.rate;
    // The reaction's own windows and factors, split by which tile digit
    // (if any) the count depends on.
    for (const auto& c : r.in_checks) {
      const Program::Check pc{c.species, c.lo, c.hi, sj(c.species),
                              st(c.species)};
      (pc.sT != 0 ? (pc.sJ != 0 ? pr.tjv_checks : pr.tj0_checks)
       : pc.sJ != 0 ? pr.j_checks
                    : pr.const_checks)
          .push_back(pc);
    }
    for (const auto& f : r.in_factors) {
      const Program::Factor pf{P.binom[static_cast<std::size_t>(f.copies)]
                                   .data(),
                               f.species, f.shift, sj(f.species),
                               st(f.species)};
      (pf.sT != 0 ? pr.t_factors : pf.sJ != 0 ? pr.j_factors
                                              : pr.const_factors)
          .push_back(pf);
    }
    P.rx.push_back(std::move(pr));
  }

  // Fused tile patterns. A reaction qualifies when every fast-digit check
  // and factor sits on the digit species itself (anchor count 0, slope 1),
  // never on a conservation-law partner — then the whole rf x rj pattern is
  // position-independent and can be tabulated once, windows included. The
  // cap keeps per-reaction patterns L1/L2-resident (32 KiB of doubles).
  constexpr std::int64_t kMaxFusedTile = 4096;
  const std::int64_t tile = P.rf * P.rj;
  if (tile >= 2 && tile <= kMaxFusedTile) {
    const int sp_t = m > 0 ? t.free_species(m - 1) : -1;
    const int sp_j = m > 1 ? t.free_species(m - 2) : -1;
    for (auto& pr : P.rx) {
      if (!pr.tjv_checks.empty()) continue;
      bool fusable = true;
      for (const auto& c : pr.tj0_checks) fusable = fusable && c.sp == sp_t;
      for (const auto& c : pr.j_checks) fusable = fusable && c.sp == sp_j;
      for (const auto& f : pr.t_factors) fusable = fusable && f.sp == sp_t;
      for (const auto& f : pr.j_factors) fusable = fusable && f.sp == sp_j;
      if (!fusable) continue;
      // Digit species make windows plain intervals (count == digit) and
      // factor arguments affine in the digit; factors are only evaluated
      // inside the window, where the table-build guarantees the argument
      // stays within the binomial tables.
      std::int64_t tl = 0, th = P.rf, jl = 0, jh = P.rj;
      for (const auto& c : pr.tj0_checks) {
        tl = std::max<std::int64_t>(tl, c.lo);
        th = std::min<std::int64_t>(th, static_cast<std::int64_t>(c.hi) + 1);
      }
      for (const auto& c : pr.j_checks) {
        jl = std::max<std::int64_t>(jl, c.lo);
        jh = std::min<std::int64_t>(jh, static_cast<std::int64_t>(c.hi) + 1);
      }
      pr.tile_coef.assign(static_cast<std::size_t>(tile), 0.0);
      for (std::int64_t j = std::max<std::int64_t>(jl, 0);
           j < std::min(jh, P.rj); ++j) {
        real_t jc = 1.0;
        for (const auto& f : pr.j_factors) {
          jc *= f.tbl[f.shift + f.sJ * j];
        }
        for (std::int64_t u = std::max<std::int64_t>(tl, 0);
             u < std::min(th, P.rf); ++u) {
          real_t c = jc;
          for (const auto& f : pr.t_factors) {
            c *= f.tbl[f.shift + f.sT * u];
          }
          pr.tile_coef[static_cast<std::size_t>(j * P.rf + u)] = c;
        }
      }
    }
  }
  program_ = std::move(p);
}

void StencilOperator::sweep_recompute(std::span<const real_t> x,
                                      std::span<real_t> y,
                                      aligned_vector<real_t>* cache_out) const {
  const Program& P = *program_;
  const auto n = static_cast<std::size_t>(table_.box_rows());
  const std::int64_t rf = P.rf;
  const std::int64_t rj = P.rj;
  const std::int64_t tile = rf * rj;
  real_t* cache = cache_out ? cache_out->data() : nullptr;

  // Clip [lo, hi) to the interval of window lo_b <= b + s*u <= hi_b.
  // |s| == 1 covers nearly every window (the digit's own species and
  // coefficient-1 conservation partners), so those paths avoid the idiv.
  const auto clip_window = [](std::int64_t& lo, std::int64_t& hi,
                              std::int64_t b, std::int64_t s,
                              std::int64_t lo_b, std::int64_t hi_b) {
    if (s == 1) {
      lo = std::max(lo, lo_b - b);
      hi = std::min(hi, hi_b - b + 1);
    } else if (s == -1) {
      lo = std::max(lo, b - hi_b);
      hi = std::min(hi, b - lo_b + 1);
    } else if (s > 0) {
      lo = std::max(lo, ceil_div(lo_b - b, s));
      hi = std::min(hi, floor_div(hi_b - b, s) + 1);
    } else {
      lo = std::max(lo, ceil_div(hi_b - b, s));
      hi = std::min(hi, floor_div(lo_b - b, s) + 1);
    }
  };

  const core::StencilTable& t = table_;
  const int m = t.num_free();
  // Explicit SIMD kernel table, resolved once per sweep. Each contiguous
  // y-accumulate window below routes through it; every ISA's table runs
  // the identical per-element multiply-then-add chain (vectorized across
  // rows, never inside a row's reduction), so the sweep stays bitwise
  // identical under CMESOLVE_SIMD and at any thread count. The ck cache
  // fills stay inline: multiply-only chains are contraction-immune and
  // dispatch-independent.
  const util::simdk::KernelOps& KO = util::simdk::kernels();

  util::parallel_for(
      n,
      [&](std::size_t cb, std::size_t ce) {
        real_t* yv = nullptr;
        const real_t* xv = nullptr;
        if (!cache) {
          yv = y.data();
          xv = x.data();
        }
        std::vector<std::int32_t> base(static_cast<std::size_t>(P.num_species),
                                       0);
        // Per-j row-validity t-windows for the current tile.
        std::vector<std::int64_t> vlo(static_cast<std::size_t>(rj));
        std::vector<std::int64_t> vhi(static_cast<std::size_t>(rj));
        std::int64_t i = static_cast<std::int64_t>(cb);
        const auto end = static_cast<std::int64_t>(ce);
        std::int64_t tb = (i / tile) * tile;
        // Decode the slow digits of the chunk's first tile once; successive
        // tiles advance them with an odometer carry instead of div/mod. The
        // digits depend only on the absolute tile index either way, so chunk
        // boundaries cannot change any value.
        {
          std::int64_t rem = tb;
          for (int d = 0; d < m - 2; ++d) {
            const std::int64_t digit = rem / t.weight(d);
            rem -= digit * t.weight(d);
            base[t.free_species(d)] = static_cast<std::int32_t>(digit);
          }
          if (m > 0) base[t.free_species(m - 1)] = 0;
          if (m > 1) base[t.free_species(m - 2)] = 0;
        }
        bool first_tile = true;
        while (i < end) {
          if (!first_tile) {
            for (int d = m - 3; d >= 0; --d) {
              auto& dg = base[t.free_species(d)];
              if (++dg < t.radix(d)) break;
              dg = 0;
            }
          }
          first_tile = false;
          const std::int64_t tbase = tb;
          const std::int64_t seg_end = std::min(tbase + tile, end);
          // Local row range [row_lo, row_hi) this chunk owns in the tile
          // (tiles may straddle chunk boundaries; the VALUES written are
          // chunk-invariant, only ownership is split).
          const std::int64_t row_lo = i - tbase;
          const std::int64_t row_hi = seg_end - tbase;
          tb = tbase + tile;
          i = seg_end;

          // Derived counts from the conservation totals at the tile anchor
          // (j = t = 0, so tile-digit terms drop out).
          for (const auto& law : t.laws()) {
            std::int64_t v = law.total;
            for (const auto& term : law.terms) {
              v -= term.coeff * base[term.species];
            }
            base[law.species] = static_cast<std::int32_t>(v);
          }

          // Row validity once per tile: a law count outside [0, cap] masks
          // the row for every reaction at once.
          bool valid = true;
          for (const auto& lc : P.const_laws) {
            if (static_cast<std::uint32_t>(base[lc.sp]) >
                static_cast<std::uint32_t>(lc.cap)) {
              valid = false;
              break;
            }
          }
          if (yv) {
            std::fill(y.begin() + static_cast<std::ptrdiff_t>(tbase + row_lo),
                      y.begin() + static_cast<std::ptrdiff_t>(tbase + row_hi),
                      0.0);
          }
          if (!valid) continue;
          std::int64_t jv_lo = row_lo / rf;
          std::int64_t jv_hi = (row_hi + rf - 1) / rf;
          for (const auto& lc : P.j_laws) {
            clip_window(jv_lo, jv_hi, base[lc.sp], lc.sJ, 0, lc.cap);
          }
          if (jv_lo >= jv_hi) continue;
          for (std::int64_t j = jv_lo; j < jv_hi; ++j) {
            std::int64_t lo = std::max<std::int64_t>(0, row_lo - j * rf);
            std::int64_t hi = std::min<std::int64_t>(rf, row_hi - j * rf);
            for (const auto& lc : P.t_laws) {
              clip_window(lo, hi, base[lc.sp] + lc.sJ * j, lc.sT, 0, lc.cap);
            }
            vlo[static_cast<std::size_t>(j)] = lo;
            vhi[static_cast<std::size_t>(j)] = hi;
          }

          // When the chunk owns the whole tile and no law clips the fast
          // digit, every per-j validity window is the full [0, rf) — the
          // uniform fast paths below may then skip the window arrays.
          const bool vfull =
              row_lo == 0 && row_hi == tile && P.t_laws.empty();

          for (std::size_t k = 0; k < P.rx.size(); ++k) {
            const Program::Reaction& r = P.rx[k];
            // Tile-constant windows: pass/fail for the whole tile.
            bool alive = true;
            for (const auto& c : r.const_checks) {
              const std::int32_t v = base[c.sp];
              if (v < c.lo || v > c.hi) {
                alive = false;
                break;
              }
            }
            if (!alive) continue;
            // Unit prefix: combinatorial factors only. The rate multiplies
            // LAST at every value-formation site below, so each entry is
            // exactly rate * (unit product) — bitwise linear in the rate,
            // matching StencilTable::in_propensity and the batched
            // operator's coefficient * shared-unit-cache split.
            real_t prefix = 1.0;
            for (const auto& f : r.const_factors) {
              prefix *= f.tbl[base[f.sp] + f.shift];
              if (prefix == 0.0) break;
            }
            if (prefix == 0.0) continue;
            const real_t rate = r.rate;
            // j-varying windows become j-intervals: lo <= b + sJ*j <= hi.
            std::int64_t jlo = jv_lo, jhi = jv_hi;
            for (const auto& c : r.j_checks) {
              clip_window(jlo, jhi, base[c.sp], c.sJ, c.lo, c.hi);
            }
            if (jlo >= jhi) continue;
            // t-windows whose species ignores the j digit are identical for
            // every j in the tile: clip them once here and the per-j loop
            // only intersects with the (usually untouched) validity window.
            std::int64_t tlo = 0, thi = rf;
            for (const auto& c : r.tj0_checks) {
              clip_window(tlo, thi, base[c.sp], c.sT, c.lo, c.hi);
            }
            if (tlo >= thi) continue;

            real_t* ck = cache ? cache + k * n : nullptr;
            const std::size_t nt = r.t_factors.size();

            // Uniform tiles: the t-window is [tlo, thi) for EVERY j, so the
            // per-j loop degenerates to pointer bumps. Reactions whose
            // factors all live on slow digits (most of them, on networks
            // like phage-lambda where regulation sits in low-capacity site
            // species) further collapse to a single contiguous axpy across
            // the whole surviving j-range — the dominant hot loop.
            if (vfull && r.tjv_checks.empty() &&
                (nt == 0 ||
                 (nt == 1 && r.t_factors[0].sJ == 0))) {
              if (nt == 0 && r.j_factors.empty() && tlo == 0 && thi == rf) {
                const std::int64_t b0 = tbase + jlo * rf;
                const std::int64_t cnt = (jhi - jlo) * rf;
                const std::int64_t s0 = b0 - r.stride;
                const real_t coef = rate * prefix;
                if (ck) {
                  for (std::int64_t u = 0; u < cnt; ++u) ck[s0 + u] = coef;
                } else {
                  KO.axpy(yv + b0, xv + s0, coef,
                          static_cast<std::size_t>(cnt));
                }
                continue;
              }
              if (!r.tile_coef.empty()) {
                // Whole-tile coefficient pattern: one contiguous
                // multiply-add over the surviving j-range; the zeros folded
                // into the pattern cover the j/t windows. Clamps keep the
                // zero-coefficient lanes from reading sources that hang
                // over the ends of the box by |stride| (any row the clamp
                // cuts has coefficient zero — a nonzero coefficient implies
                // its predecessor row is inside the box).
                std::int64_t ulo = jlo * rf, uhi = jhi * rf;
                ulo = std::max(ulo, r.stride - tbase);
                uhi = std::min(
                    uhi, static_cast<std::int64_t>(n) + r.stride - tbase);
                const real_t* cf = r.tile_coef.data();
                const std::int64_t s0 = tbase - r.stride;
                if (ck) {
                  for (std::int64_t u = ulo; u < uhi; ++u) {
                    ck[s0 + u] = rate * (prefix * cf[u]);
                  }
                } else if (uhi > ulo) {
                  KO.scaled_cmul_add(yv + tbase + ulo, cf + ulo,
                                     xv + s0 + ulo, rate, prefix,
                                     static_cast<std::size_t>(uhi - ulo));
                }
                continue;
              }
              const Program::Factor* tf = nt ? &r.t_factors[0] : nullptr;
              const real_t* tw =
                  tf && tf->sT == 1 ? tf->tbl + base[tf->sp] + tf->shift
                                    : nullptr;
              std::int64_t dst0 = tbase + jlo * rf;
              for (std::int64_t j = jlo; j < jhi; ++j, dst0 += rf) {
                real_t kj = prefix;
                for (const auto& f : r.j_factors) {
                  kj *= f.tbl[base[f.sp] + f.shift + f.sJ * j];
                }
                if (kj == 0.0) continue;
                const std::int64_t src0 = dst0 - r.stride;
                if (tw) {
                  if (ck) {
                    for (std::int64_t u = tlo; u < thi; ++u) {
                      ck[src0 + u] = rate * (kj * tw[u]);
                    }
                  } else {
                    KO.scaled_cmul_add(yv + dst0 + tlo, tw + tlo,
                                       xv + src0 + tlo, rate, kj,
                                       static_cast<std::size_t>(thi - tlo));
                  }
                } else if (tf) {
                  std::int32_t arg = base[tf->sp] + tf->shift +
                                     tf->sT * static_cast<std::int32_t>(tlo);
                  if (ck) {
                    for (std::int64_t u = tlo; u < thi; ++u, arg += tf->sT) {
                      ck[src0 + u] = rate * (kj * tf->tbl[arg]);
                    }
                  } else {
                    for (std::int64_t u = tlo; u < thi; ++u, arg += tf->sT) {
                      yv[dst0 + u] += rate * (kj * tf->tbl[arg]) * xv[src0 + u];
                    }
                  }
                } else {
                  const real_t coef = rate * kj;
                  if (ck) {
                    for (std::int64_t u = tlo; u < thi; ++u) {
                      ck[src0 + u] = coef;
                    }
                  } else {
                    KO.axpy(yv + dst0 + tlo, xv + src0 + tlo, coef,
                            static_cast<std::size_t>(thi - tlo));
                  }
                }
              }
              continue;
            }

            for (std::int64_t j = jlo; j < jhi; ++j) {
              std::int64_t lo =
                  std::max(tlo, vlo[static_cast<std::size_t>(j)]);
              std::int64_t hi =
                  std::min(thi, vhi[static_cast<std::size_t>(j)]);
              if (!r.tile_coef.empty()) {
                // Same expression as the whole-tile fused path above, so a
                // tile split across chunk boundaries produces bit-identical
                // rows at any thread count.
                const std::int64_t dst0 = tbase + j * rf;
                const std::int64_t src0 = dst0 - r.stride;
                lo = std::max(lo, -src0);
                hi = std::min(hi, static_cast<std::int64_t>(n) - src0);
                const real_t* cf = r.tile_coef.data() + j * rf;
                if (ck) {
                  for (std::int64_t u = lo; u < hi; ++u) {
                    ck[src0 + u] = rate * (prefix * cf[u]);
                  }
                } else if (hi > lo) {
                  KO.scaled_cmul_add(yv + dst0 + lo, cf + lo, xv + src0 + lo,
                                     rate, prefix,
                                     static_cast<std::size_t>(hi - lo));
                }
                continue;
              }
              for (const auto& c : r.tjv_checks) {
                clip_window(lo, hi, base[c.sp] + c.sJ * j, c.sT, c.lo, c.hi);
              }
              if (lo >= hi) continue;
              // Per-j unit coefficient: tile-constant x j-only factors;
              // the rate multiplies last at the value sites.
              real_t kj = prefix;
              for (const auto& f : r.j_factors) {
                kj *= f.tbl[base[f.sp] + f.shift + f.sJ * j];
              }
              if (kj == 0.0) continue;

              // Validated rows: destination tbase + j*rf + u, source
              // (pred) destination - stride, both inside [0, box_rows).
              const std::int64_t dst0 = tbase + j * rf;
              const std::int64_t src0 = dst0 - r.stride;
              if (nt == 0) {
                const real_t coef = rate * kj;
                if (ck) {
                  for (std::int64_t u = lo; u < hi; ++u) {
                    ck[src0 + u] = coef;
                  }
                } else {
                  KO.axpy(yv + dst0 + lo, xv + src0 + lo, coef,
                          static_cast<std::size_t>(hi - lo));
                }
              } else if (nt == 1) {
                const Program::Factor& f = r.t_factors[0];
                const std::int32_t st = f.sT;
                const std::int32_t arg0 =
                    base[f.sp] + f.shift + f.sJ * static_cast<std::int32_t>(j);
                if (st == 1) {
                  // Contiguous table walk: tw[u] = tbl[arg0 + u]. This is
                  // the rank-1 hot loop the vectoriser targets.
                  const real_t* tw = f.tbl + arg0;
                  if (ck) {
                    for (std::int64_t u = lo; u < hi; ++u) {
                      ck[src0 + u] = rate * (kj * tw[u]);
                    }
                  } else {
                    KO.scaled_cmul_add(yv + dst0 + lo, tw + lo,
                                       xv + src0 + lo, rate, kj,
                                       static_cast<std::size_t>(hi - lo));
                  }
                } else {
                  std::int32_t arg = arg0 + st * static_cast<std::int32_t>(lo);
                  if (ck) {
                    for (std::int64_t u = lo; u < hi; ++u, arg += st) {
                      ck[src0 + u] = rate * (kj * f.tbl[arg]);
                    }
                  } else {
                    for (std::int64_t u = lo; u < hi; ++u, arg += st) {
                      yv[dst0 + u] += rate * (kj * f.tbl[arg]) * xv[src0 + u];
                    }
                  }
                }
              } else {
                std::array<std::int32_t, 8> args{};
                std::array<std::int32_t, 8> steps{};
                if (nt > args.size()) {
                  throw std::logic_error(
                      "StencilOperator: more than 8 t-varying factors");
                }
                for (std::size_t f = 0; f < nt; ++f) {
                  const auto& vf = r.t_factors[f];
                  steps[f] = vf.sT;
                  args[f] = base[vf.sp] + vf.shift +
                            vf.sJ * static_cast<std::int32_t>(j) +
                            steps[f] * static_cast<std::int32_t>(lo);
                }
                for (std::int64_t u = lo; u < hi; ++u) {
                  real_t a = kj;
                  for (std::size_t f = 0; f < nt; ++f) {
                    a *= r.t_factors[f].tbl[args[f]];
                    args[f] += steps[f];
                  }
                  if (ck) {
                    ck[src0 + u] = rate * a;
                  } else {
                    yv[dst0 + u] += rate * a * xv[src0 + u];
                  }
                }
              }
            }
          }
        }
      },
      kSweepGrain);
}

void StencilOperator::sweep_cached(std::span<const real_t> x,
                                   std::span<real_t> y) const {
  const Program& P = *program_;
  const auto n = static_cast<std::int64_t>(table_.box_rows());
  const util::simdk::KernelOps& KO = util::simdk::kernels();
  util::parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t cb, std::size_t ce) {
        std::fill(y.begin() + static_cast<std::ptrdiff_t>(cb),
                  y.begin() + static_cast<std::ptrdiff_t>(ce), 0.0);
        // Per-row accumulation order is the reaction order for every
        // chunking, matching the recompute sweep (cached zeros where that
        // sweep skips change nothing). Each reaction's window is a
        // contiguous shifted multiply-add — the explicit-SIMD cmul_add
        // kernel, vectorized across rows.
        const real_t* xv = x.data();
        real_t* yv = y.data();
        for (std::size_t k = 0; k < P.rx.size(); ++k) {
          const std::int64_t s = P.rx[k].stride;
          const std::int64_t lo =
              std::max<std::int64_t>(static_cast<std::int64_t>(cb),
                                     s > 0 ? s : 0);
          const std::int64_t hi = std::min<std::int64_t>(
              static_cast<std::int64_t>(ce), s < 0 ? n + s : n);
          if (hi <= lo) continue;
          const real_t* ck = cache_.data() + k * static_cast<std::size_t>(n);
          KO.cmul_add(yv + lo, ck + lo - s, xv + lo - s,
                      static_cast<std::size_t>(hi - lo));
        }
      },
      kSweepGrain);
}

void StencilOperator::multiply(std::span<const real_t> x,
                               std::span<real_t> y) const {
  CMESOLVE_TRACE_SPAN("stencil.sweep");
  if (mode_ == StencilMode::kPropensityCache) {
    sweep_cached(x, y);
  } else {
    sweep_recompute(x, y, nullptr);
  }
}

void StencilOperator::build_cache() {
  cache_.assign(
      program_->rx.size() * static_cast<std::size_t>(table_.box_rows()), 0.0);
  sweep_recompute({}, {}, &cache_);
}

void StencilOperator::compute_inf_norm() {
  // ||A||_inf via a ones sweep: off-diagonal entries are propensities
  // (non-negative), so the row sums of |L + U| are exactly (L + U) * 1.
  const auto n = static_cast<std::size_t>(table_.box_rows());
  const std::vector<real_t> ones(n, 1.0);
  std::vector<real_t> rowsum(n, 0.0);
  sweep_recompute(ones, rowsum, nullptr);
  const auto d = table_.diag();
  inf_norm_ = util::parallel_reduce(
      n, kReduceChunk, real_t{0.0},
      [&](std::size_t b, std::size_t e) {
        real_t mx = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          mx = std::max(mx, std::abs(d[i]) + rowsum[i]);
        }
        return mx;
      },
      [](real_t a, real_t b) { return std::max(a, b); });
}

void StencilOperator::scatter_from(const core::StateSpace& space,
                                   std::span<const real_t> from,
                                   std::span<real_t> to) const {
  std::fill(to.begin(), to.end(), 0.0);
  for (index_t j = 0; j < space.size(); ++j) {
    const index_t i = table_.box_index(space.counts(j));
    if (i < 0) {
      throw std::invalid_argument(
          "StencilOperator::scatter_from: state outside the stencil box");
    }
    to[static_cast<std::size_t>(i)] = from[static_cast<std::size_t>(j)];
  }
}

void StencilOperator::gather_to(const core::StateSpace& space,
                                std::span<const real_t> from,
                                std::span<real_t> to) const {
  for (index_t j = 0; j < space.size(); ++j) {
    const index_t i = table_.box_index(space.counts(j));
    if (i < 0) {
      throw std::invalid_argument(
          "StencilOperator::gather_to: state outside the stencil box");
    }
    to[static_cast<std::size_t>(j)] = from[static_cast<std::size_t>(i)];
  }
}

// ---------------------------------------------------------------------------
// MaskedStencilOperator
// ---------------------------------------------------------------------------

MaskedStencilOperator::MaskedStencilOperator(
    const core::StencilTable& table, const core::DynamicStateSpace& space,
    index_t return_member)
    : table_(&table), members_(space.size()) {
  const auto n = static_cast<std::size_t>(table.box_rows());
  const auto m = static_cast<std::size_t>(members_);
  if (return_member < 0 || return_member >= members_) {
    throw std::invalid_argument(
        "MaskedStencilOperator: return state not a member");
  }
  box_of_.resize(m);
  std::vector<index_t> member_at(n, -1);
  for (index_t j = 0; j < members_; ++j) {
    const index_t bj = table.box_index(space.counts(j));
    if (bj < 0 || member_at[static_cast<std::size_t>(bj)] >= 0) {
      throw std::logic_error(
          "MaskedStencilOperator: member outside the stencil box");
    }
    member_at[static_cast<std::size_t>(bj)] = j;
    box_of_[static_cast<std::size_t>(j)] = bj;
  }
  return_box_ = box_of_[static_cast<std::size_t>(return_member)];

  const auto& rx = table.reactions();
  cache_.assign(rx.size() * n, 0.0);
  leak_.assign(n, 0.0);
  diag_.assign(n, -1.0);

  // Per-member stencil evaluation: every write lands at this member's box
  // row, so members parallelize with disjoint stores; the edge count
  // reduces over fixed chunks — bit-identical at any thread count.
  const int ns = space.num_species();
  offdiag_nnz_ = util::parallel_reduce(
      m, std::size_t{4096}, std::size_t{0},
      [&](std::size_t b, std::size_t e) {
        std::size_t edges = 0;
        core::State xs(static_cast<std::size_t>(ns));
        for (std::size_t j = b; j < e; ++j) {
          for (int s = 0; s < ns; ++s) {
            xs[static_cast<std::size_t>(s)] =
                space.count(static_cast<index_t>(j), s);
          }
          const auto bj = static_cast<std::size_t>(box_of_[j]);
          real_t total = 0.0;
          real_t lk = 0.0;
          for (std::size_t k = 0; k < rx.size(); ++k) {
            const real_t a = table_->out_propensity(rx[k], xs);
            if (a <= 0.0) continue;
            total += a;
            const auto succ = static_cast<std::size_t>(
                static_cast<std::int64_t>(bj) + rx[k].stride);
            if (member_at[succ] >= 0) {
              cache_[k * n + bj] = a;
              ++edges;
            } else {
              lk += a;
            }
          }
          leak_[bj] = lk;
          // The return member's own leak folds into its diagonal instead
          // of a self-loop redirect, mirroring ProjectedRateMatrix.
          const bool is_ret = static_cast<index_t>(j) == return_member;
          diag_[bj] = -(total - (is_ret ? lk : 0.0));
          if (lk > 0.0 && !is_ret) ++edges;
        }
        return edges;
      },
      [](std::size_t a, std::size_t b) { return a + b; });

  const std::vector<real_t> ones(n, 1.0);
  std::vector<real_t> rowsum(n, 0.0);
  multiply(ones, rowsum);
  inf_norm_ = util::parallel_reduce(
      n, kReduceChunk, real_t{0.0},
      [&](std::size_t b, std::size_t e) {
        real_t mx = 0.0;
        for (std::size_t i = b; i < e; ++i) {
          mx = std::max(mx, std::abs(diag_[i]) + rowsum[i]);
        }
        return mx;
      },
      [](real_t a, real_t b) { return std::max(a, b); });
}

void MaskedStencilOperator::multiply(std::span<const real_t> x,
                                     std::span<real_t> y) const {
  CMESOLVE_TRACE_SPAN("stencil.sweep");
  const auto& rx = table_->reactions();
  const auto n = static_cast<std::int64_t>(table_->box_rows());
  const util::simdk::KernelOps& KO = util::simdk::kernels();
  util::parallel_for(
      static_cast<std::size_t>(n),
      [&](std::size_t cb, std::size_t ce) {
        std::fill(y.begin() + static_cast<std::ptrdiff_t>(cb),
                  y.begin() + static_cast<std::ptrdiff_t>(ce), 0.0);
        const real_t* xv = x.data();
        real_t* yv = y.data();
        for (std::size_t k = 0; k < rx.size(); ++k) {
          const std::int64_t s = rx[k].stride;
          const std::int64_t lo =
              std::max<std::int64_t>(static_cast<std::int64_t>(cb),
                                     s > 0 ? s : 0);
          const std::int64_t hi = std::min<std::int64_t>(
              static_cast<std::int64_t>(ce), s < 0 ? n + s : n);
          if (hi <= lo) continue;
          const real_t* ck = cache_.data() + k * static_cast<std::size_t>(n);
          KO.cmul_add(yv + lo, ck + lo - s, xv + lo - s,
                      static_cast<std::size_t>(hi - lo));
        }
      },
      kSweepGrain);
  // Out-of-set flux redirect: y[return] += sum_{j != return} gamma_j x_j,
  // reduced over fixed chunks and applied serially after the barrier.
  const real_t sink = util::parallel_reduce(
      static_cast<std::size_t>(n), kReduceChunk, real_t{0.0},
      [&](std::size_t b, std::size_t e) {
        real_t acc = 0.0;
        for (std::size_t i = b; i < e; ++i) acc += leak_[i] * x[i];
        return acc;
      },
      [](real_t a, real_t b) { return a + b; });
  const auto rb = static_cast<std::size_t>(return_box_);
  y[rb] += sink - leak_[rb] * x[rb];
}

void MaskedStencilOperator::scatter_from_members(std::span<const real_t> from,
                                                 std::span<real_t> to) const {
  std::fill(to.begin(), to.end(), 0.0);
  for (index_t j = 0; j < members_; ++j) {
    to[static_cast<std::size_t>(box_of_[static_cast<std::size_t>(j)])] =
        from[static_cast<std::size_t>(j)];
  }
}

void MaskedStencilOperator::gather_to_members(std::span<const real_t> from,
                                              std::span<real_t> to) const {
  for (index_t j = 0; j < members_; ++j) {
    to[static_cast<std::size_t>(j)] =
        from[static_cast<std::size_t>(box_of_[static_cast<std::size_t>(j)])];
  }
}

}  // namespace cmesolve::solver
