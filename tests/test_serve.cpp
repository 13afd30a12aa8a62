// Tests for the CME-as-a-service subsystem (src/serve/): exact-key result
// cache, environment options, admission/priority scheduling — plus
// regression tests for the request-path bugfixes (transient truncation
// accounting, hardened JSON reader, warm_restart fallback).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <future>
#include <optional>
#include <string>
#include <vector>

#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "serve/cache.hpp"
#include "serve/controller.hpp"
#include "serve/workload.hpp"
#include "solver/transient.hpp"
#include "solver/vector_ops.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"
#include "solver/operators.hpp"
#include "solver/stencil_operator.hpp"
#include "util/parallel.hpp"
#include "verify/json_reader.hpp"
#include "verify/repro_io.hpp"
#include "verify/scenario.hpp"

namespace cmesolve::serve {
namespace {

bool bitwise_equal(std::span<const real_t> a, std::span<const real_t> b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(real_t)) == 0;
}

/// Tiny birth-death chain: 41 states, solves in milliseconds.
verify::Scenario birth_death(real_t birth, real_t death) {
  verify::Scenario sc;
  sc.name = "bd";
  sc.archetype = "serve-test";
  sc.species.push_back({"X", 40});
  verify::ScenarioReaction b;
  b.name = "birth";
  b.rate = birth;
  b.changes.push_back({0, +1});
  sc.reactions.push_back(b);
  verify::ScenarioReaction d;
  d.name = "death";
  d.rate = death;
  d.reactants.push_back({0, 1});
  d.changes.push_back({0, -1});
  sc.reactions.push_back(d);
  sc.initial = {0};
  return sc;
}

// ---------------------------------------------------------------------------
// Cache keying
// ---------------------------------------------------------------------------

TEST(ServeCache, LruEvictsOldestAndCountsIt) {
  ResultCache cache(2);
  cache.insert("k1", {1.0});
  cache.insert("k2", {1.0});
  ASSERT_NE(cache.find_exact("k1"), nullptr);  // bump k1; k2 is now oldest
  cache.insert("k3", {1.0});
  EXPECT_EQ(cache.find_exact("k2"), nullptr);
  EXPECT_NE(cache.find_exact("k1"), nullptr);
  EXPECT_NE(cache.find_exact("k3"), nullptr);
  const CacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
}

// ---------------------------------------------------------------------------
// Environment options
// ---------------------------------------------------------------------------

/// Sets one environment variable for a scope and restores it afterwards.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = ::getenv(name)) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (old_) {
      ::setenv(name_, old_->c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> old_;
};

TEST(ServeOptionsEnv, WorkersAcceptsOnlyAPositiveWholeNumber) {
  const int dflt = ServeOptions{}.workers;
  {
    ScopedEnv e("CMESOLVE_SERVE_WORKERS", "3");
    EXPECT_EQ(serve_options_from_env().workers, 3);
  }
  for (const char* bad : {"abc", "", "0", "-2", "4x", "2.5", " 3"}) {
    ScopedEnv e("CMESOLVE_SERVE_WORKERS", bad);
    EXPECT_EQ(serve_options_from_env().workers, dflt) << '"' << bad << '"';
  }
}

TEST(ServeOptionsEnv, QueueCapKeepsTheDefaultOnAMalformedValue) {
  // "abc" used to read as 0 and shed every request.
  const std::size_t dflt = ServeOptions{}.queue_capacity;
  {
    ScopedEnv e("CMESOLVE_SERVE_QUEUE_CAP", "0");
    EXPECT_EQ(serve_options_from_env().queue_capacity, 0u);
  }
  for (const char* bad : {"abc", "", "-1", "16k", "99999999999999999999999"}) {
    ScopedEnv e("CMESOLVE_SERVE_QUEUE_CAP", bad);
    EXPECT_EQ(serve_options_from_env().queue_capacity, dflt)
        << '"' << bad << '"';
  }
}

TEST(ServeOptionsEnv, CacheCapKeepsTheDefaultOnAMalformedValue) {
  // "abc" used to read as 0 and silently disable the cache.
  const std::size_t dflt = ServeOptions{}.cache_capacity;
  {
    ScopedEnv e("CMESOLVE_SERVE_CACHE_CAP", "12");
    EXPECT_EQ(serve_options_from_env().cache_capacity, 12u);
  }
  for (const char* bad : {"abc", "", "-5", "1e3", "0x10"}) {
    ScopedEnv e("CMESOLVE_SERVE_CACHE_CAP", bad);
    EXPECT_EQ(serve_options_from_env().cache_capacity, dflt)
        << '"' << bad << '"';
  }
}

// ---------------------------------------------------------------------------
// Daemon: cache hits, cold misses, scheduling
// ---------------------------------------------------------------------------

TEST(Serve, CacheHitIsBitwiseIdenticalToTheColdSolve) {
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  const std::string wire = verify::serialize_repro(birth_death(2.0, 1.0));

  SolveResponse cold = ctl.submit(wire).get();
  ASSERT_EQ(cold.status, Status::kOk);
  EXPECT_FALSE(cold.cache_hit);
  EXPECT_GT(cold.iterations, 0u);

  SolveResponse hit = ctl.submit(wire).get();
  ASSERT_EQ(hit.status, Status::kOk);
  EXPECT_TRUE(hit.cache_hit);
  EXPECT_EQ(hit.iterations, 0u);
  EXPECT_TRUE(bitwise_equal(hit.p, cold.p));

  // Whitespace-distinct wire bytes of the same scenario hit too: the key is
  // the canonical re-serialization, not the raw input.
  SolveResponse hit2 = ctl.submit("  " + wire + "\n ").get();
  ASSERT_EQ(hit2.status, Status::kOk);
  EXPECT_TRUE(hit2.cache_hit);

  const ServeStats s = ctl.stats();
  EXPECT_EQ(s.cache_hits, 2u);
  EXPECT_EQ(s.cold_solves, 1u);
}

TEST(Serve, ResponseDoesNotDependOnCacheHistory) {
  // Variant B served on a fresh daemon and on one that has just solved a
  // near neighbour A (5% on one rate): a miss always starts from the
  // uniform vector, so both answers are the same bytes after the same
  // number of sweeps.
  const verify::Scenario a = birth_death(2.0, 1.0);
  const verify::Scenario b = birth_death(2.1, 1.0);
  ServeOptions opt;
  opt.workers = 1;

  Controller fresh(opt);
  const SolveResponse alone = fresh.submit(verify::Scenario(b)).get();
  ASSERT_EQ(alone.status, Status::kOk);

  Controller primed(opt);
  ASSERT_EQ(primed.submit(verify::Scenario(a)).get().status, Status::kOk);
  const SolveResponse after = primed.submit(verify::Scenario(b)).get();
  ASSERT_EQ(after.status, Status::kOk);
  EXPECT_FALSE(after.cache_hit);

  EXPECT_TRUE(bitwise_equal(after.p, alone.p));
  EXPECT_EQ(after.iterations, alone.iterations);
  EXPECT_EQ(after.residual, alone.residual);
}

TEST(Serve, QueueFullShedsAndPriorityEvictsTheYoungestLowPriority) {
  ServeOptions opt;
  opt.workers = 1;
  opt.queue_capacity = 2;
  opt.start_paused = true;  // park the worker: admission is deterministic
  Controller ctl(opt);
  const std::string wire = verify::serialize_repro(birth_death(2.0, 1.0));

  auto f1 = ctl.submit(wire, Priority::kNormal);
  auto f2 = ctl.submit(wire, Priority::kNormal);
  EXPECT_EQ(ctl.queue_depth(), 2u);

  // Queue full + no lower-priority victim => the incoming request sheds.
  SolveResponse shed = ctl.submit(wire, Priority::kNormal).get();
  EXPECT_EQ(shed.status, Status::kShed);
  EXPECT_EQ(shed.error, "queue full");

  // An interactive request evicts the YOUNGEST normal entry (f2), not f1.
  auto f3 = ctl.submit(wire, Priority::kInteractive);
  SolveResponse evicted = f2.get();
  EXPECT_EQ(evicted.status, Status::kShed);
  EXPECT_EQ(evicted.error, "evicted by a higher-priority request");
  EXPECT_EQ(ctl.queue_depth(), 2u);

  ctl.resume();
  EXPECT_EQ(f1.get().status, Status::kOk);
  EXPECT_EQ(f3.get().status, Status::kOk);

  const ServeStats s = ctl.stats();
  EXPECT_EQ(s.shed, 2u);
  EXPECT_EQ(s.queue_evicted, 1u);
  EXPECT_EQ(s.completed, 2u);
}

TEST(Serve, MalformedWireRequestsAreInvalidNotQueued) {
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  SolveResponse bad = ctl.submit("{not json").get();
  EXPECT_EQ(bad.status, Status::kInvalid);
  EXPECT_NE(bad.error.find("json:"), std::string::npos);
  SolveResponse bad2 = ctl.submit("{\"schema\": \"nope/9\"}").get();
  EXPECT_EQ(bad2.status, Status::kInvalid);
  const ServeStats s = ctl.stats();
  EXPECT_EQ(s.invalid, 2u);
  EXPECT_EQ(s.submitted, 2u);
}

TEST(Serve, ResponsesAreBitIdenticalAcrossThreadBudgetsAndWorkerCounts) {
  // The InlineRegion contract: a solve inside the daemon takes the serial
  // path whatever CMESOLVE_THREADS resolves to, so responses are bitwise
  // stable across thread budgets AND worker-pool sizes.
  const std::string wire = verify::serialize_repro(birth_death(3.0, 1.25));
  std::vector<real_t> reference;
  for (const int threads : {1, 8}) {
    util::set_max_threads(threads);
    for (const int workers : {1, 4}) {
      ServeOptions opt;
      opt.workers = workers;
      Controller ctl(opt);
      SolveResponse r = ctl.submit(wire).get();
      ASSERT_EQ(r.status, Status::kOk);
      if (reference.empty()) {
        reference = r.p;
      } else {
        EXPECT_TRUE(bitwise_equal(r.p, reference))
            << "threads=" << threads << " workers=" << workers;
      }
    }
  }
  util::set_max_threads(0);
}

TEST(Serve, AbsorbingScenarioFailsWithTheSolverDiagnostic) {
  // Pure-death chain from X=40: state 0 is absorbing => zero diagonal.
  verify::Scenario sc = birth_death(2.0, 1.0);
  sc.reactions.erase(sc.reactions.begin());  // drop birth
  sc.initial = {40};
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  SolveResponse r = ctl.submit(verify::Scenario(sc)).get();
  EXPECT_EQ(r.status, Status::kFailed);
  EXPECT_NE(r.error.find("zero diagonal"), std::string::npos);
}

/// Jacobi options of a scenario, as the controller sets them.
solver::JacobiOptions jacobi_options(const verify::Scenario& sc) {
  solver::JacobiOptions jopt;
  jopt.eps = sc.jacobi_eps;
  jopt.stagnation_eps = sc.jacobi_stagnation_eps;
  jopt.max_iterations = sc.jacobi_max_iterations;
  jopt.damping = sc.jacobi_damping;
  return jopt;
}

/// The assembled miss pipeline: enumerate, assemble CSR, Jacobi from the
/// uniform vector.
struct CsrAnswer {
  std::vector<real_t> p;
  solver::JacobiResult r;
};

CsrAnswer csr_answer(const verify::Scenario& sc) {
  const core::ReactionNetwork net = verify::build_network(sc);
  const core::StateSpace space(net, sc.initial, sc.max_states);
  const sparse::Csr a = core::rate_matrix(space);
  CsrAnswer out;
  out.p.resize(static_cast<std::size_t>(a.nrows));
  solver::fill_uniform(out.p);
  out.r = solver::jacobi_solve(solver::CsrOperator(a), a.inf_norm(), out.p,
                               jacobi_options(sc));
  return out;
}

/// One request, in wire form, through a fresh one-worker daemon.
SolveResponse serve_once(const verify::Scenario& sc, ServeStats& stats) {
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  SolveResponse r = ctl.submit(verify::serialize_repro(sc)).get();
  stats = ctl.stats();
  return r;
}

/// L1 distance between two vectors of one size.
real_t l1_distance(std::span<const real_t> a, std::span<const real_t> b) {
  real_t d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

TEST(ServeRegression, MissStopsOnTheNormOfTheEnumeratedSpace) {
  // fuzz-390-near-zero: 8 states in a 512-row box whose unreachable rows
  // carry rates up to 1, against a norm of 1.7e-11 over the states. The
  // box is past the stencil cut-off, so the miss is assembled.
  {
    const verify::Scenario sc = verify::random_scenario(390);
    const CsrAnswer ref = csr_answer(sc);
    ServeStats stats;
    const SolveResponse r = serve_once(sc, stats);
    ASSERT_EQ(r.status, Status::kOk) << r.error;
    EXPECT_EQ(stats.csr_fallbacks, 1u);
    EXPECT_EQ(r.iterations, ref.r.iterations);
    EXPECT_EQ(r.residual, ref.r.residual);
    EXPECT_TRUE(bitwise_equal(r.p, ref.p));
  }
  // The same trap inside the cut-off: G only decays, at rate 1e6, so from
  // G = 0 half of the 42-row box is unreachable and its norm is 1e6,
  // against 43 over the states. Stopping on the box norm would end the
  // solve after 100 sweeps instead of 200.
  verify::Scenario sc = birth_death(2.0, 1.0);
  sc.species[0].capacity = 20;
  sc.species.push_back({"G", 1});
  sc.reactions.push_back({"gate", 1e6, {{1, 1}}, {{1, -1}}});
  sc.initial = {0, 0};
  const CsrAnswer ref = csr_answer(sc);
  ServeStats stats;
  const SolveResponse r = serve_once(sc, stats);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(stats.csr_fallbacks, 0u);
  EXPECT_EQ(r.iterations, ref.r.iterations);
  EXPECT_NEAR(r.residual, ref.r.residual, 1e-9 * ref.r.residual);
  EXPECT_LE(l1_distance(r.p, ref.p), 1e-12);
}

TEST(ServeRegression, UnreachableAbsorbingBoxRowDoesNotFailTheMiss) {
  // Autocatalytic birth X -> 2X and pair death 2X -> X from X = 5: the box
  // row X = 0 has no outflow, but nothing reaches it, so the assembled
  // space has no zero diagonal and neither may the stencil miss.
  verify::Scenario sc;
  sc.name = "autocatalytic";
  sc.archetype = "serve-test";
  sc.species.push_back({"X", 30});
  sc.reactions.push_back({"birth", 1.0, {{0, 1}}, {{0, +1}}});
  sc.reactions.push_back({"pair-death", 0.2, {{0, 2}}, {{0, -1}}});
  sc.initial = {5};
  const CsrAnswer ref = csr_answer(sc);
  ServeStats stats;
  const SolveResponse r = serve_once(sc, stats);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(stats.csr_fallbacks, 0u);
  EXPECT_EQ(r.states, ref.p.size());
  EXPECT_EQ(r.iterations, ref.r.iterations);
  EXPECT_NEAR(r.residual, ref.r.residual, 1e-9 * ref.r.residual);
  EXPECT_LE(l1_distance(r.p, ref.p), 1e-12);
}

TEST(ServeRegression, SparseBoxMissIsAssembledAsBefore) {
  // fuzz-13-conservation-ring: 120 states in a 512-row box, past the
  // stencil cut-off, so the miss runs the assembled pipeline bit for bit.
  const verify::Scenario sc = verify::random_scenario(13);
  ASSERT_EQ(sc.archetype, "conservation-ring");
  const CsrAnswer ref = csr_answer(sc);
  ServeStats stats;
  const SolveResponse r = serve_once(sc, stats);
  ASSERT_EQ(r.status, Status::kOk) << r.error;
  EXPECT_EQ(stats.csr_fallbacks, 1u);
  EXPECT_EQ(stats.cold_iterations, ref.r.iterations);
  EXPECT_EQ(r.residual, ref.r.residual);
  EXPECT_TRUE(bitwise_equal(r.p, ref.p));
}

#if defined(CMESOLVE_THREADS_ENABLED)
/// Threads of this process (entries of /proc/self/task).
std::size_t process_threads() {
  std::size_t n = 0;
  for ([[maybe_unused]] const auto& e :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ++n;
  }
  return n;
}

/// Death-test body, run in a fresh process with OMP_NUM_THREADS=4 and a
/// 4-thread pool. The pool starts its threads on first use, so a miss that
/// drove it, or forked an OpenMP team, would show up as new entries in
/// /proc/self/task. Exits 0 when the stencil miss stayed on the worker and
/// matched a pooled solve of the same space bit for bit.
[[noreturn]] void stencil_miss_with_four_threads(const verify::Scenario& sc) {
  util::set_max_threads(4);
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  const std::size_t before_miss = process_threads();
  const SolveResponse r = ctl.submit(sc).get();
  const std::size_t after_miss = process_threads();
  if (r.status != Status::kOk || r.cache_hit) {
    std::fprintf(stderr, "miss failed: %s\n", r.error.c_str());
    std::_Exit(4);
  }
  if (ctl.stats().csr_fallbacks != 0) {
    std::fprintf(stderr, "miss was assembled, not run on the stencil\n");
    std::_Exit(5);
  }
  if (after_miss != before_miss) {
    std::fprintf(stderr, "serve worker started %zu threads\n",
                 after_miss - before_miss);
    std::_Exit(1);
  }

  // Reference: the same solve on this thread, outside any InlineRegion,
  // where the sweeps run on the pool.
  const core::ReactionNetwork net = verify::build_network(sc);
  const core::StateSpace space(net, sc.initial, sc.max_states);
  const solver::StencilOperator op(net, sc.initial);
  std::vector<real_t> reference(static_cast<std::size_t>(space.size()));
  solver::fill_uniform(reference);
  std::vector<real_t> x(static_cast<std::size_t>(op.nrows()));
  op.scatter_from(space, reference, x);
  (void)solver::jacobi_solve(op, op.space_inf_norm(space), x,
                             jacobi_options(sc));
  op.gather_to(space, x, reference);
  if (process_threads() <= after_miss) {
    std::fprintf(stderr, "the reference solve started no pool threads\n");
    std::_Exit(3);
  }
  if (!bitwise_equal(r.p, reference)) {
    std::fprintf(stderr, "response differs from the pooled solve\n");
    std::_Exit(2);
  }
  std::_Exit(0);
}
#endif

TEST(ServeRegression, StencilMissUnderInlineRegionStartsNoThread) {
  // A serve worker runs its stencil miss on its own thread, whatever the
  // pool's budget or OMP_NUM_THREADS say, and answers bit for bit what a
  // pooled solve computes. Runs in a re-executed child so the environment
  // takes effect and the pool starts out empty.
#if !defined(CMESOLVE_THREADS_ENABLED)
  GTEST_SKIP() << "built without the thread pool";
#else
  const ScopedEnv omp("OMP_NUM_THREADS", "4");
  const std::string outer_style = ::testing::FLAGS_gtest_death_test_style;
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // The sweeps split over the pool only from util::kParallelGrain rows up,
  // so the reference needs that many states: two independent birth-death
  // species of 65 counts each give 4,225, and converge in 400 sweeps where
  // a 5,000-state chain takes 6,500.
  verify::Scenario sc = birth_death(3.0, 1.25);
  sc.species[0].capacity = 64;
  sc.species.push_back({"Y", 64});
  for (verify::ScenarioReaction r : birth_death(3.0, 1.25).reactions) {
    for (auto& reactant : r.reactants) reactant.species = 1;
    for (auto& change : r.changes) change.species = 1;
    r.name += "-y";
    sc.reactions.push_back(r);
  }
  sc.initial = {0, 0};
  static_assert(util::kParallelGrain <= 65u * 65u);
  EXPECT_EXIT(stencil_miss_with_four_threads(sc),
              ::testing::ExitedWithCode(0), "");
  ::testing::FLAGS_gtest_death_test_style = outer_style;
#endif
}

// ---------------------------------------------------------------------------
// Load harness
// ---------------------------------------------------------------------------

TEST(ServeLoad, ZipfTraceIsDeterministicAndSkewed) {
  const auto t1 = zipf_trace(16, 1.1, 500, 7);
  const auto t2 = zipf_trace(16, 1.1, 500, 7);
  EXPECT_EQ(t1, t2);
  std::vector<int> histo(16, 0);
  for (const std::size_t r : t1) {
    ASSERT_LT(r, 16u);
    ++histo[r];
  }
  // Rank 0 must dominate the tail rank under s=1.1.
  EXPECT_GT(histo[0], histo[15] * 2);
}

TEST(ServeLoad, ClosedLoopDeterministicModeServesEveryRequest) {
  ServeOptions sopt;
  sopt.workers = 1;
  Controller ctl(sopt);
  std::vector<SweepFamily> fams;
  fams.push_back(make_sweep_family(birth_death(2.0, 1.0), 6, 0.2, 11));
  LoadOptions lopt;
  lopt.requests = 40;
  lopt.clients = 1;
  lopt.think_seconds = 0.0;
  lopt.seed = 11;
  const LoadReport rep = run_closed_loop(ctl, fams, lopt);
  EXPECT_EQ(rep.requests, 40u);
  EXPECT_EQ(rep.ok, 40u);
  EXPECT_EQ(rep.shed + rep.failed + rep.invalid, 0u);
  // 6 variants, 40 Zipf-skewed requests: most are repeats.
  EXPECT_GT(rep.cache_hits, 20u);
  EXPECT_GE(rep.cold_solves, 1u);
  EXPECT_EQ(rep.cache_hits + rep.cold_solves, rep.ok);
}

// ---------------------------------------------------------------------------
// Bugfix regressions: transient truncation accounting
// ---------------------------------------------------------------------------

sparse::Csr two_state(real_t up, real_t down) {
  sparse::Coo c;
  c.nrows = c.ncols = 2;
  c.add(0, 0, -up);
  c.add(1, 0, up);
  c.add(0, 1, down);
  c.add(1, 1, -down);
  return sparse::csr_from_coo(std::move(c));
}

TEST(TransientRegression, EpsBelowTheMassFloorTerminatesViaTailExhaustion) {
  // The accumulated Poisson mass carries ~1e-12 of rounding error, so with
  // eps below the accumulation floor the `mass >= 1 - eps` test can never
  // fire. Before the fix this spun all the way to max_terms doing
  // zero-weight SpMVs and then reported the complete series as
  // truncated_early. (eps = 0 itself is rejected up front these days —
  // see Transient.OptionValidationThrowsCleanly — so the smallest positive
  // double stands in for it here.)
  const sparse::Csr a = two_state(2.0, 1.0);
  const solver::CsrOperator op(a);
  std::vector<real_t> p = {1.0, 0.0};
  solver::TransientOptions opt;
  opt.eps = 1e-300;
  opt.max_terms = 100'000;
  const auto res = solver::transient_solve(op, 5.0, std::span<real_t>(p), opt);
  EXPECT_TRUE(res.tail_exhausted);
  EXPECT_FALSE(res.truncated_early);
  // lambda*t ~ 10: the series is numerically complete within a few hundred
  // terms, nowhere near the cap.
  EXPECT_LT(res.matvecs, 1000u);
  EXPECT_NEAR(res.covered_mass, 1.0, 1e-9);
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
  // And the answer matches the analytic stationary limit at large t.
  EXPECT_NEAR(p[0], 1.0 / 3.0, 1e-6);
}

TEST(TransientRegression, PartialTruncationReportsCoveredMassAndRenormalizes) {
  const sparse::Csr a = two_state(2.0, 1.0);
  const solver::CsrOperator op(a);
  std::vector<real_t> p = {1.0, 0.0};
  solver::TransientOptions opt;
  opt.max_terms = 30;  // Poisson mean ~60: cut mid-bulk
  const auto res = solver::transient_solve(op, 20.0, std::span<real_t>(p), opt);
  EXPECT_TRUE(res.truncated_early);
  EXPECT_FALSE(res.tail_exhausted);
  EXPECT_GT(res.covered_mass, 0.0);
  EXPECT_LT(res.covered_mass, 0.9);
  // The truncated series is renormalized by the covered mass: still a
  // proper distribution.
  EXPECT_NEAR(p[0] + p[1], 1.0, 1e-12);
}

TEST(TransientRegression, HeadUnderflowBeforeTheBulkLeavesPUntouched) {
  // max_terms far below the Poisson mean: every computed weight underflows
  // (log w_k ~ -m at small k), covered mass is exactly 0, and p must come
  // back unchanged — NOT renormalized garbage, and NOT tail_exhausted
  // (the guard requires k past the mean so a zero HEAD weight cannot end
  // the series).
  const sparse::Csr a = two_state(2.0, 1.0);
  const solver::CsrOperator op(a);
  std::vector<real_t> p = {0.25, 0.75};
  solver::TransientOptions opt;
  opt.max_terms = 5;  // mean lambda*t ~ 2000
  const auto res =
      solver::transient_solve(op, 700.0, std::span<real_t>(p), opt);
  EXPECT_TRUE(res.truncated_early);
  EXPECT_FALSE(res.tail_exhausted);
  EXPECT_EQ(res.covered_mass, 0.0);
  EXPECT_EQ(p[0], 0.25);
  EXPECT_EQ(p[1], 0.75);
}

// ---------------------------------------------------------------------------
// Bugfix regressions: hardened JSON reader / wire limits
// ---------------------------------------------------------------------------

TEST(JsonRegression, NestingBombIsRejectedNotAStackOverflow) {
  // 5000 unbalanced '[' used to recurse 5000 frames deep; the default cap
  // (256) now rejects it with a diagnostic.
  const std::string bomb(5000, '[');
  try {
    (void)verify::parse_json(bomb);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than 256"),
              std::string::npos);
  }
}

TEST(JsonRegression, WireLimitsCapDepthAtTwentyFour) {
  std::string deep;
  for (int i = 0; i < 30; ++i) deep += "[";
  for (int i = 0; i < 30; ++i) deep += "]";
  EXPECT_NO_THROW((void)verify::parse_json(deep));  // default cap: fine
  EXPECT_THROW((void)verify::parse_json(deep, verify::kWireJsonLimits),
               std::runtime_error);
}

TEST(JsonRegression, DuplicateKeysRejectedOnTheWirePreservedByDefault) {
  const std::string doc = R"({"rate": 1, "rate": 1e9})";
  // Default parser preserves duplicates — the report schema oracle counts
  // them itself.
  const verify::JsonValue v = verify::parse_json(doc);
  EXPECT_EQ(v.count("rate"), 2u);
  // Wire traffic rejects them: {"rate":1,"rate":1e9} would otherwise bind
  // the first and silently drop the second.
  verify::JsonLimits lim;
  lim.reject_duplicate_keys = true;
  try {
    (void)verify::parse_json(doc, lim);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("duplicate object key \"rate\""),
              std::string::npos);
  }
}

TEST(JsonRegression, ParseErrorsCarryLineAndColumn) {
  const std::string doc = "{\n  \"a\": 1,\n  \"b\": oops\n}";
  try {
    (void)verify::parse_json(doc);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("line 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("column"), std::string::npos) << msg;
  }
}

TEST(JsonRegression, TrailingGarbageIsRejected) {
  EXPECT_THROW((void)verify::parse_json("{} trailing"), std::runtime_error);
  EXPECT_THROW((void)verify::parse_json("[1,2,3] 4"), std::runtime_error);
  EXPECT_NO_THROW((void)verify::parse_json("{}  \n"));
}

TEST(JsonRegression, SizeCapBoundsUntrustedInput) {
  verify::JsonLimits lim;
  lim.max_bytes = 16;
  EXPECT_NO_THROW((void)verify::parse_json("[1, 2, 3]", lim));
  try {
    (void)verify::parse_json("[1, 2, 3, 4, 5, 6]", lim);
    FAIL() << "expected rejection";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds the 16-byte limit"),
              std::string::npos);
  }
}

TEST(JsonRegression, ParseReproEnforcesWireLimitsEndToEnd) {
  // A canonical document round-trips fine...
  const std::string good = verify::serialize_repro(birth_death(2.0, 1.0));
  EXPECT_NO_THROW((void)verify::parse_repro(good));
  // ...a duplicated top-level key does not.
  std::string dup = good;
  const std::string needle = "\"seed\": 0,";
  const auto pos = dup.find(needle);
  ASSERT_NE(pos, std::string::npos);
  dup.insert(pos, "\"seed\": 7,\n  ");
  EXPECT_THROW((void)verify::parse_repro(dup), std::runtime_error);
}

// ---------------------------------------------------------------------------
// Bugfix regressions: warm_restart fallback instead of size-mismatch UB
// ---------------------------------------------------------------------------

TEST(WarmRestartRegression, ValidRemapStillScattersAndNormalizes) {
  const std::vector<real_t> prev = {0.2, 0.6, 0.2};
  const std::vector<index_t> remap = {0, 2, -1};  // state 1 -> 2, last pruned
  std::vector<real_t> out(4, -1.0);
  EXPECT_TRUE(solver::warm_restart(prev, remap, out));
  EXPECT_NEAR(out[0], 0.25, 1e-15);
  EXPECT_NEAR(out[1], 0.0, 1e-15);
  EXPECT_NEAR(out[2], 0.75, 1e-15);
  EXPECT_NEAR(out[3], 0.0, 1e-15);
}

TEST(WarmRestartRegression, LengthMismatchFallsBackToUniform) {
  // A cached vector from a different FSP round (pruned/expanded set): the
  // remap no longer matches. Before the fix this was an assert in debug
  // builds and out-of-bounds UB in release.
  const std::vector<real_t> prev = {0.5, 0.5};
  const std::vector<index_t> remap = {0, 1, 2};  // stale: 3 entries
  std::vector<real_t> out(4, -1.0);
  EXPECT_FALSE(solver::warm_restart(prev, remap, out));
  for (const real_t v : out) EXPECT_EQ(v, 0.25);
}

TEST(WarmRestartRegression, OutOfRangeTargetFallsBackToUniform) {
  const std::vector<real_t> prev = {0.5, 0.5};
  const std::vector<index_t> remap = {0, 7};  // 7 is outside out
  std::vector<real_t> out(3, -1.0);
  EXPECT_FALSE(solver::warm_restart(prev, remap, out));
  for (const real_t v : out) EXPECT_NEAR(v, 1.0 / 3.0, 1e-15);
}

TEST(WarmRestartRegression, AllMassDroppedFallsBackToUniform) {
  // Every surviving entry pruned: the scatter carries zero probability and
  // a normalize would be a silent no-op on the zero vector.
  const std::vector<real_t> prev = {0.5, 0.5};
  const std::vector<index_t> remap = {-1, -1};
  std::vector<real_t> out(5, 0.0);
  EXPECT_FALSE(solver::warm_restart(prev, remap, out));
  for (const real_t v : out) EXPECT_EQ(v, 0.2);
}

TEST(WarmRestartRegression, ServeRecordsWarmStartAppliedHonestly) {
  // The daemon never seeds a solve from a cached neighbour: a near miss
  // after a cold solve is another cold solve, and the warm counters the
  // statistics still carry stay at zero.
  ServeOptions opt;
  opt.workers = 1;
  Controller ctl(opt);
  SolveResponse first =
      ctl.submit(verify::Scenario(birth_death(2.0, 1.0))).get();
  ASSERT_EQ(first.status, Status::kOk);
  SolveResponse near =
      ctl.submit(verify::Scenario(birth_death(2.1, 1.0))).get();
  ASSERT_EQ(near.status, Status::kOk);
  EXPECT_FALSE(near.cache_hit);
  const ServeStats s = ctl.stats();
  EXPECT_EQ(s.cold_solves, 2u);
  EXPECT_EQ(s.warm_starts, 0u);
  EXPECT_EQ(s.warm_iterations, 0u);
}

}  // namespace
}  // namespace cmesolve::serve
