// Runtime SIMD dispatch: selection mechanics and the cross-ISA bitwise
// parity contract.
//
// The explicit kernel layer (util/simd_kernels.hpp) promises that every
// compiled ISA table — scalar, SSE2, AVX2, AVX-512, NEON — produces the
// SAME BITS: vectorization runs across independent states or lanes, never
// inside a row's reduction, and every TU compiles with -ffp-contract=off.
// This suite pins that promise the same way test_parallel_determinism pins
// the thread-count contract: the fuzzer's adversarial scenario families are
// solved to a stationary vector under every compiled ISA at 1 and 8
// threads, and every solution entry, stop reason, iteration count and
// flight-recorder signature must compare EXACTLY against the forced-scalar
// single-thread reference.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "obs/flight_recorder.hpp"
#include "solver/batched.hpp"
#include "solver/jacobi.hpp"
#include "solver/krylov_expm.hpp"
#include "solver/operators.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/transient.hpp"
#include "solver/vector_ops.hpp"
#include "util/parallel.hpp"
#include "util/simd.hpp"
#include "util/simd_kernels.hpp"
#include "verify/scenario.hpp"

namespace cmesolve {
namespace {

namespace simd = util::simd;

/// RAII thread-budget override; restores auto-detection on scope exit.
class ThreadBudget {
 public:
  explicit ThreadBudget(int n) { util::set_max_threads(n); }
  ~ThreadBudget() { util::set_max_threads(0); }
  ThreadBudget(const ThreadBudget&) = delete;
  ThreadBudget& operator=(const ThreadBudget&) = delete;
};

/// RAII ISA override; always lands back on auto-dispatch.
class ForcedIsa {
 public:
  explicit ForcedIsa(simd::Isa isa) : ok_(simd::force_isa(isa)) {}
  ~ForcedIsa() { simd::reset_forced_isa(); }
  [[nodiscard]] bool ok() const noexcept { return ok_; }
  ForcedIsa(const ForcedIsa&) = delete;
  ForcedIsa& operator=(const ForcedIsa&) = delete;

 private:
  bool ok_;
};

TEST(SimdDispatch, ParseRoundTripsEveryIsaName) {
  for (const simd::Isa isa : simd::compiled_isas()) {
    simd::Isa parsed{};
    ASSERT_TRUE(simd::parse_isa(simd::to_string(isa), parsed))
        << simd::to_string(isa);
    EXPECT_EQ(parsed, isa);
  }
  simd::Isa out{};
  EXPECT_FALSE(simd::parse_isa("pentium-mmx", out));
  EXPECT_FALSE(simd::parse_isa("", out));
}

TEST(SimdDispatch, CompiledIsasStartAtScalarAndWidenMonotonically) {
  const auto& isas = simd::compiled_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.front(), simd::Isa::kScalar);
  int prev = 0;
  for (const simd::Isa isa : isas) {
    EXPECT_GE(simd::isa_width(isa), prev);
    prev = simd::isa_width(isa);
  }
  EXPECT_EQ(simd::isa_width(simd::Isa::kScalar), 1);
}

TEST(SimdDispatch, KernelTableMatchesEveryCompiledIsa) {
  for (const simd::Isa isa : simd::compiled_isas()) {
    const util::simdk::KernelOps& ops = util::simdk::kernels_for(isa);
    EXPECT_EQ(ops.isa, isa);
    EXPECT_EQ(ops.width, simd::isa_width(isa));
    EXPECT_STREQ(ops.name, simd::to_string(isa));
  }
}

TEST(SimdDispatch, ForceSelectsAndResetRestoresAuto) {
  const simd::Isa detected = simd::active_isa();
  {
    ForcedIsa f(simd::Isa::kScalar);
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
    EXPECT_STREQ(simd::active_isa_name(), "scalar");
  }
  EXPECT_EQ(simd::active_isa(), detected);
}

TEST(SimdDispatch, EnvVarForcesScalarAndUnknownFallsBackToAuto) {
  // CI runs this suite with CMESOLVE_SIMD already exported; park the outer
  // value so the auto-pick baseline is the true CPUID choice, and restore
  // it on the way out for the tests that follow.
  const char* outer_env = ::getenv("CMESOLVE_SIMD");
  const std::string outer = outer_env ? outer_env : "";
  ::unsetenv("CMESOLVE_SIMD");
  simd::reset_forced_isa();
  const simd::Isa detected = simd::active_isa();
  ::setenv("CMESOLVE_SIMD", "scalar", 1);
  simd::reset_forced_isa();  // drops the cached auto pick -> env re-read
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);

  ::setenv("CMESOLVE_SIMD", "vliw-itanium", 1);
  simd::reset_forced_isa();
  EXPECT_EQ(simd::active_isa(), detected);  // warn + auto, never a throw

  ::unsetenv("CMESOLVE_SIMD");
  simd::reset_forced_isa();
  EXPECT_EQ(simd::active_isa(), detected);

  if (outer_env != nullptr) ::setenv("CMESOLVE_SIMD", outer.c_str(), 1);
  simd::reset_forced_isa();
}

// ---------------------------------------------------------------------------
// Cross-ISA parity on the fuzzer's scenario families.
// ---------------------------------------------------------------------------

struct SolveRun {
  std::vector<real_t> x;
  solver::JacobiResult res;
  std::uint64_t flight_sig = 0;
};

/// Full stencil-path Jacobi solve of one scenario with the flight recorder
/// capturing the residual stream. Bounded iterations: parity cares that
/// every ISA walks the SAME trajectory, converged or not.
SolveRun solve_scenario(const verify::Scenario& sc) {
  const auto net = verify::build_network(sc);
  const solver::StencilOperator op(net, sc.initial);
  solver::JacobiOptions jopt;
  jopt.eps = sc.jacobi_eps;
  jopt.stagnation_eps = sc.jacobi_stagnation_eps;
  jopt.max_iterations = 2000;
  jopt.damping = sc.jacobi_damping;

  SolveRun out;
  out.x.resize(static_cast<std::size_t>(op.nrows()));
  solver::fill_uniform(out.x);
  auto& flight = obs::FlightRecorder::instance();
  flight.enable();
  out.res = solver::jacobi_solve(op, op.inf_norm(), out.x, jopt);
  out.flight_sig = flight.content_signature();
  flight.disable();
  return out;
}

bool bitwise_equal(const std::vector<real_t>& a, const std::vector<real_t>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0);
}

TEST(SimdDispatchParity, ScenarioFamiliesMatchScalarAtEveryIsaAndThreadCount) {
  // Seeds 0..7 cycle the generator's archetype list, so every adversarial
  // family is represented at least once.
  const std::size_t families = verify::scenario_archetypes().size();
  for (std::uint64_t seed = 0; seed < std::max<std::size_t>(families, 8);
       ++seed) {
    const verify::Scenario sc = verify::random_scenario(seed);
    if (sc.expect != verify::Expectation::kSteadyState) continue;

    SolveRun ref;
    {
      ThreadBudget serial(1);
      ForcedIsa scalar(simd::Isa::kScalar);
      ASSERT_TRUE(scalar.ok());
      ref = solve_scenario(sc);
    }
    for (const simd::Isa isa : simd::compiled_isas()) {
      for (const int threads : {1, 8}) {
        ThreadBudget budget(threads);
        ForcedIsa forced(isa);
        if (!forced.ok()) continue;  // compiled in, CPU lacks it
        const SolveRun run = solve_scenario(sc);
        const std::string ctx = sc.name + " isa=" + simd::to_string(isa) +
                                " threads=" + std::to_string(threads);
        EXPECT_TRUE(bitwise_equal(run.x, ref.x)) << ctx;
        EXPECT_EQ(run.res.iterations, ref.res.iterations) << ctx;
        EXPECT_EQ(run.res.reason, ref.res.reason) << ctx;
        // residual is part of the trajectory, so bitwise too
        EXPECT_EQ(run.res.residual, ref.res.residual) << ctx;
        EXPECT_EQ(run.flight_sig, ref.flight_sig) << ctx;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Transient-engine parity: both exp(tA) engines ride the same kernel table
// and chunked reductions as Jacobi, so a uniformization series and a Krylov
// propagation must be bitwise identical at every ISA and thread count —
// including the flight-recorder stream they emit.
// ---------------------------------------------------------------------------

struct TransientRun {
  std::vector<real_t> pu;  // uniformization output
  std::vector<real_t> pk;  // Krylov output
  solver::TransientResult ru;
  solver::KrylovExpmResult rk;
  std::uint64_t flight_sig = 0;
};

TransientRun transient_scenario(const verify::Scenario& sc) {
  const auto net = verify::build_network(sc);
  const solver::StencilOperator op(net, sc.initial);
  real_t dmax = 0.0;
  for (const real_t d : op.diag()) dmax = std::max(dmax, std::abs(d));
  const real_t t = dmax > 0.0 ? 2.0 / dmax : 1.0;
  const auto n = static_cast<std::size_t>(op.nrows());

  TransientRun out;
  out.pu.resize(n);
  solver::fill_uniform(out.pu);  // any distribution works for parity
  out.pk = out.pu;
  auto& flight = obs::FlightRecorder::instance();
  flight.enable();
  solver::TransientOptions topt;
  topt.max_step_mean = 1.0;  // force sub-stepping -> more events to compare
  out.ru = solver::transient_solve(op, t, out.pu, topt);
  solver::KrylovExpmOptions kopt;
  kopt.tol = 1e-13;
  out.rk = solver::krylov_expm_solve(op, t, out.pk, kopt);
  out.flight_sig = flight.content_signature();
  flight.disable();
  return out;
}

TEST(SimdDispatchParity, TransientEnginesMatchScalarAtEveryIsaAndThreadCount) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const verify::Scenario sc = verify::random_scenario(seed);

    TransientRun ref;
    {
      ThreadBudget serial(1);
      ForcedIsa scalar(simd::Isa::kScalar);
      ASSERT_TRUE(scalar.ok());
      ref = transient_scenario(sc);
    }
    for (const simd::Isa isa : simd::compiled_isas()) {
      for (const int threads : {1, 2, 8}) {
        ThreadBudget budget(threads);
        ForcedIsa forced(isa);
        if (!forced.ok()) continue;  // compiled in, CPU lacks it
        const TransientRun run = transient_scenario(sc);
        const std::string ctx = sc.name + " isa=" + simd::to_string(isa) +
                                " threads=" + std::to_string(threads);
        EXPECT_TRUE(bitwise_equal(run.pu, ref.pu)) << ctx;
        EXPECT_TRUE(bitwise_equal(run.pk, ref.pk)) << ctx;
        EXPECT_EQ(run.ru.matvecs, ref.ru.matvecs) << ctx;
        EXPECT_EQ(run.ru.steps, ref.ru.steps) << ctx;
        EXPECT_EQ(run.ru.covered_mass, ref.ru.covered_mass) << ctx;
        EXPECT_EQ(run.rk.matvecs, ref.rk.matvecs) << ctx;
        EXPECT_EQ(run.rk.steps, ref.rk.steps) << ctx;
        EXPECT_EQ(run.rk.error_estimate, ref.rk.error_estimate) << ctx;
        EXPECT_EQ(run.flight_sig, ref.flight_sig) << ctx;
      }
    }
  }
}

// The fused uniformization term (KernelOps::uniformize_term) replaced a
// three-pass sequence — bv += d .* v, v += (1/lambda) * bv, acc += w * v
// (the accumulate reads v before the update) — and must produce its bits.
TEST(SimdDispatchParity, FusedUniformizationTermMatchesThreePassSequence) {
  // Odd length past two grains: parallel_for chunks it at threads > 1, and
  // every ISA runs both its vector body and its scalar tail.
  const std::size_t n = 2 * solver::kUniformizeGrain + 13;
  std::vector<real_t> v0(n);
  std::vector<real_t> bv(n);
  std::vector<real_t> d(n);
  std::vector<real_t> acc0(n);
  for (std::size_t i = 0; i < n; ++i) {
    v0[i] = 1.0 / static_cast<real_t>(3 + (i % 17));
    bv[i] = 0.25 / static_cast<real_t>(1 + (i % 11));
    d[i] = -(1.0 + 0.375 * static_cast<real_t>(i % 7));
    acc0[i] = 1.0 / static_cast<real_t>(5 + (i % 13));
  }
  const real_t inv_lambda = 1.0 / 7.3;
  const real_t w = 0.1234567;

  // Reference: the three passes on the scalar table, serially.
  const util::simdk::KernelOps& ref_ops =
      util::simdk::kernels_for(simd::Isa::kScalar);
  std::vector<real_t> v_ref = v0;
  std::vector<real_t> acc_ref = acc0;
  std::vector<real_t> b = bv;
  ref_ops.axpy(acc_ref.data(), v_ref.data(), w, n);
  ref_ops.cmul_add(b.data(), d.data(), v_ref.data(), n);
  ref_ops.axpy(v_ref.data(), b.data(), inv_lambda, n);

  for (const simd::Isa isa : simd::compiled_isas()) {
    for (const int threads : {1, 2, 8}) {
      ThreadBudget budget(threads);
      ForcedIsa forced(isa);
      if (!forced.ok()) continue;
      const std::string ctx = std::string("isa=") + simd::to_string(isa) +
                              " threads=" + std::to_string(threads);
      std::vector<real_t> v = v0;
      std::vector<real_t> acc = acc0;
      solver::uniformize_term(v, acc, bv, d, inv_lambda, w);
      EXPECT_TRUE(bitwise_equal(v, v_ref)) << ctx;
      EXPECT_TRUE(bitwise_equal(acc, acc_ref)) << ctx;
      // Left-skipped terms: the variant without an accumulator.
      v = v0;
      solver::uniformize_term(v, {}, bv, d, inv_lambda, w);
      EXPECT_TRUE(bitwise_equal(v, v_ref)) << ctx << " (no acc)";
    }
  }
}

TEST(SimdDispatchParity, BatchedLanesMatchScalarAtEveryIsa) {
  // Batched operator over one scenario network with K=5 perturbed rate
  // sets: an odd width exercises the vector body AND the scalar lane tail
  // in the same sweep.
  const verify::Scenario sc = verify::random_scenario(3);
  const auto net = verify::build_network(sc);
  const solver::StencilOperator anchor(net, sc.initial);
  const solver::EnsembleStructure structure(anchor.table());
  constexpr int kLanes = 5;
  std::vector<std::vector<real_t>> rates;
  for (int j = 0; j < kLanes; ++j) {
    std::vector<real_t> rj;
    for (int r = 0; r < net.num_reactions(); ++r) {
      rj.push_back(net.reaction(r).rate * (1.0 + 0.125 * j));
    }
    rates.push_back(std::move(rj));
  }
  const solver::BatchedStencilOperator bop(structure, rates);
  const auto n = static_cast<std::size_t>(anchor.nrows());
  std::vector<real_t> x(n * kLanes);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = 1.0 / static_cast<real_t>(3 + (i % 17));
  }
  std::vector<real_t> y(n * kLanes);
  std::vector<real_t> y_ref(n * kLanes);
  {
    ForcedIsa scalar(simd::Isa::kScalar);
    ASSERT_TRUE(scalar.ok());
    bop.multiply(x, y_ref);
  }
  for (const simd::Isa isa : simd::compiled_isas()) {
    for (const int threads : {1, 8}) {
      ThreadBudget budget(threads);
      ForcedIsa forced(isa);
      if (!forced.ok()) continue;
      bop.multiply(x, y);
      EXPECT_TRUE(bitwise_equal(y, y_ref))
          << "isa=" << simd::to_string(isa) << " threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// The subnormal-range flush of the Jacobi update kernels (kFlushBelow).
// ---------------------------------------------------------------------------

/// Update-kernel inputs on both sides of the flush threshold: signed zeros,
/// subnormals, DBL_MIN, values just below, at and above 1e-300, NaN and
/// ordinary magnitudes.
std::vector<real_t> flush_probe_values() {
  const real_t t = util::simdk::kFlushBelow;
  const real_t nan = std::numeric_limits<real_t>::quiet_NaN();
  const real_t sub = std::numeric_limits<real_t>::denorm_min();
  return {0.0,     -0.0,    sub,    -sub,    1e-310, -1e-310, DBL_MIN,
          -DBL_MIN, 1e-301, -1e-301, std::nextafter(t, 0.0), t, -t,
          1e-299,  -1e-299, nan,    -nan,    1.0,    -2.5,    0.125,
          3e5,     -7e-3};
}

bool is_positive_zero(real_t v) {
  return std::bit_cast<std::uint64_t>(v) == 0;
}

/// Checks one update result against the flush contract: +0.0 below the
/// threshold, NaN stays NaN, anything else is never subnormal.
void expect_flushed(real_t v, const std::string& ctx) {
  if (std::isnan(v)) return;
  if (std::fabs(v) < util::simdk::kFlushBelow) {
    EXPECT_TRUE(is_positive_zero(v)) << ctx << " kept " << v;
  }
  EXPECT_NE(std::fpclassify(v), FP_SUBNORMAL) << ctx;
}

TEST(SimdFlush, UpdateKernelsFlushBelowThresholdBitwiseAtEveryIsa) {
  const std::vector<real_t> probe = flush_probe_values();
  const std::size_t np = probe.size();
  // 37 rows: every width runs its vector body and its scalar tail, and
  // both the quotients and the old x values run through every probe value.
  const std::size_t n = 37;
  std::vector<real_t> x0(n);
  std::vector<real_t> nx0(n);
  std::vector<real_t> d(n);
  for (std::size_t i = 0; i < n; ++i) {
    x0[i] = probe[(3 * i + 1) % np];
    d[i] = i % 2 == 0 ? -1.0 : -0.5;
    // v = -nx/d lands on the probe value (exactly for d = -1).
    nx0[i] = probe[i % np] * -d[i];
  }
  // Lane layout: 3 rows of k = 11 lanes (a full AVX-512 vector plus a
  // tail), lanes 3 and 9 frozen.
  const std::size_t k = 11;
  const std::size_t rows = 3;
  std::vector<std::uint8_t> active(k, 1);
  active[3] = active[9] = 0;
  std::vector<real_t> lx0(rows * k);
  std::vector<real_t> lnx0(rows * k);
  std::vector<real_t> ld(rows * k);
  for (std::size_t j = 0; j < rows * k; ++j) {
    lx0[j] = probe[(5 * j + 2) % np];
    ld[j] = j % 3 == 0 ? -1.0 : -4.0;
    lnx0[j] = probe[j % np] * -ld[j];
  }
  const real_t omega = 0.75;

  struct Out {
    std::vector<real_t> x, nx, xd, nxd, lx, lnx, lxd, lnxd;
  };
  const auto run = [&](const util::simdk::KernelOps& ko) {
    Out o{x0, nx0, x0, nx0, lx0, lnx0, lx0, lnx0};
    ko.scale_swap(o.x.data(), o.nx.data(), d.data(), n);
    ko.scale_swap_damped(o.xd.data(), o.nxd.data(), d.data(), omega, n);
    ko.lane_scale_swap(o.lx.data(), o.lnx.data(), ld.data(), rows, k,
                       active.data());
    ko.lane_scale_swap_damped(o.lxd.data(), o.lnxd.data(), ld.data(), omega,
                              rows, k, active.data());
    return o;
  };

  const Out ref = run(util::simdk::kernels_for(simd::Isa::kScalar));
  // The scalar table itself: the old x moves to nx untouched, the update
  // is flushed, and frozen lanes keep x.
  for (std::size_t i = 0; i < n; ++i) {
    const std::string ctx = "row " + std::to_string(i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.nx[i]),
              std::bit_cast<std::uint64_t>(x0[i])) << ctx;
    expect_flushed(ref.x[i], "scale_swap " + ctx);
    expect_flushed(ref.xd[i], "scale_swap_damped " + ctx);
    if (d[i] == -1.0) {
      const real_t want = probe[i % np];
      if (std::isnan(want)) {
        EXPECT_TRUE(std::isnan(ref.x[i])) << ctx;
      } else if (std::fabs(want) >= util::simdk::kFlushBelow) {
        EXPECT_EQ(ref.x[i], want) << ctx;  // at or above: untouched
      }
    }
  }
  for (std::size_t j = 0; j < rows * k; ++j) {
    const std::string ctx = "element " + std::to_string(j);
    if (active[j % k]) {
      expect_flushed(ref.lx[j], "lane_scale_swap " + ctx);
      expect_flushed(ref.lxd[j], "lane_scale_swap_damped " + ctx);
    } else {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.lx[j]),
                std::bit_cast<std::uint64_t>(lx0[j])) << ctx;
      EXPECT_EQ(std::bit_cast<std::uint64_t>(ref.lxd[j]),
                std::bit_cast<std::uint64_t>(lx0[j])) << ctx;
    }
  }

  for (const simd::Isa isa : simd::compiled_isas()) {
    const Out got = run(util::simdk::kernels_for(isa));
    const std::string ctx = std::string("isa=") + simd::to_string(isa);
    EXPECT_TRUE(bitwise_equal(got.x, ref.x)) << ctx << " scale_swap x";
    EXPECT_TRUE(bitwise_equal(got.nx, ref.nx)) << ctx << " scale_swap nx";
    EXPECT_TRUE(bitwise_equal(got.xd, ref.xd)) << ctx << " damped x";
    EXPECT_TRUE(bitwise_equal(got.nxd, ref.nxd)) << ctx << " damped nx";
    EXPECT_TRUE(bitwise_equal(got.lx, ref.lx)) << ctx << " lane x";
    EXPECT_TRUE(bitwise_equal(got.lnx, ref.lnx)) << ctx << " lane nx";
    EXPECT_TRUE(bitwise_equal(got.lxd, ref.lxd)) << ctx << " lane damped x";
    EXPECT_TRUE(bitwise_equal(got.lnxd, ref.lnxd))
        << ctx << " lane damped nx";
  }
}

/// One species, birth = death = 1, buffer 200: the stationary law is
/// Poisson(1) truncated at 200, whose tail drops below 1e-300 near n = 167
/// and below DBL_MIN a few states later.
verify::Scenario poisson_tail() {
  verify::Scenario sc;
  sc.name = "poisson-tail";
  sc.archetype = "flush-test";
  sc.species.push_back({"X", 200});
  verify::ScenarioReaction b;
  b.name = "birth";
  b.rate = 1.0;
  b.changes.push_back({0, +1});
  sc.reactions.push_back(b);
  verify::ScenarioReaction dth;
  dth.name = "death";
  dth.rate = 1.0;
  dth.reactants.push_back({0, 1});
  dth.changes.push_back({0, -1});
  sc.reactions.push_back(dth);
  sc.initial = {0};
  return sc;
}

solver::JacobiOptions tail_jacobi() {
  solver::JacobiOptions jopt;
  jopt.eps = 1e-10;
  jopt.max_iterations = 500;
  return jopt;
}

std::size_t count_subnormal(const std::vector<real_t>& x) {
  std::size_t c = 0;
  for (const real_t v : x) c += std::fpclassify(v) == FP_SUBNORMAL ? 1 : 0;
  return c;
}

TEST(SimdFlush, PoissonTailSolveHoldsNoSubnormalAtEveryIsaAndThreadCount) {
  const verify::Scenario sc = poisson_tail();
  const auto net = verify::build_network(sc);
  const solver::StencilOperator op(net, sc.initial);
  ASSERT_EQ(op.nrows(), 201);
  const auto solve = [&] {
    std::vector<real_t> x(static_cast<std::size_t>(op.nrows()));
    solver::fill_uniform(x);
    (void)solver::jacobi_solve(op, op.inf_norm(), x, tail_jacobi());
    return x;
  };

  std::vector<real_t> ref;
  {
    ThreadBudget serial(1);
    ForcedIsa scalar(simd::Isa::kScalar);
    ASSERT_TRUE(scalar.ok());
    ref = solve();
  }
  EXPECT_EQ(count_subnormal(ref), 0u);
  // The tail really crosses the threshold: the flush left exact zeros,
  // and the last nonzero entry sits within a few states of 1e-300.
  std::size_t last = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i] != 0.0) last = i;
  }
  EXPECT_LT(last, ref.size() - 1);
  EXPECT_LT(ref[last], 1e-295);

  for (const simd::Isa isa : simd::compiled_isas()) {
    for (const int threads : {1, 2, 8}) {
      ThreadBudget budget(threads);
      ForcedIsa forced(isa);
      if (!forced.ok()) continue;
      EXPECT_TRUE(bitwise_equal(solve(), ref))
          << "isa=" << simd::to_string(isa) << " threads=" << threads;
    }
  }

  // The CSR path of a serve miss flushes the same way.
  const core::StateSpace space(net, sc.initial, sc.max_states);
  const sparse::Csr a = core::rate_matrix(space);
  const solver::CsrOperator csr(a);
  std::vector<real_t> xc(static_cast<std::size_t>(a.nrows));
  solver::fill_uniform(xc);
  (void)solver::jacobi_solve(csr, a.inf_norm(), xc, tail_jacobi());
  EXPECT_EQ(count_subnormal(xc), 0u);
}

TEST(SimdFlush, PoissonTailBatchedLanesMatchSingleRhsSolve) {
  // Three lanes with different birth rates; each must be the single-RHS
  // jacobi_solve of its point bit for bit, flush included.
  const verify::Scenario sc = poisson_tail();
  const auto net = verify::build_network(sc);
  const solver::StencilOperator anchor(net, sc.initial);
  const solver::EnsembleStructure structure(anchor.table());
  const std::vector<std::vector<real_t>> rates = {
      {1.0, 1.0}, {0.75, 1.0}, {1.25, 1.0}};
  const solver::BatchedStencilOperator bop(structure, rates);
  const auto n = static_cast<std::size_t>(bop.nrows());
  const std::size_t kk = rates.size();
  std::vector<real_t> xb(n * kk, 1.0 / static_cast<real_t>(n));
  const auto results = solver::batched_jacobi_solve(bop, xb, tail_jacobi());
  ASSERT_EQ(results.size(), kk);

  for (std::size_t q = 0; q < kk; ++q) {
    core::StencilTable tbl(anchor.table(), rates[q]);
    const solver::StencilOperator op(std::move(tbl),
                                     solver::StencilMode::kPropensityCache);
    std::vector<real_t> x(n, 1.0 / static_cast<real_t>(n));
    const auto r = solver::jacobi_solve(op, op.inf_norm(), x, tail_jacobi());
    std::vector<real_t> lane(n);
    for (std::size_t i = 0; i < n; ++i) lane[i] = xb[i * kk + q];
    EXPECT_EQ(count_subnormal(lane), 0u) << "lane " << q;
    EXPECT_TRUE(bitwise_equal(lane, x)) << "lane " << q;
    EXPECT_EQ(results[q].iterations, r.iterations) << "lane " << q;
    EXPECT_EQ(results[q].residual, r.residual) << "lane " << q;
  }
}

}  // namespace
}  // namespace cmesolve
