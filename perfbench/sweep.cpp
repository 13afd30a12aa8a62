// sweep: K rate points of the damped phage-lambda switch through
// solver::solve_ensemble with batching, continuation and the GMRES
// fallback on. The box is small enough to stay cache-resident, so the run
// measures the batched K-lane operator and the ensemble solver loop, not
// enumeration or memory bandwidth.
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "core/stencil.hpp"
#include "serve/workload.hpp"
#include "solver/batched.hpp"
#include "solver/jacobi.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/vector_ops.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "verify/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cmesolve;

constexpr int kPoints = 32;          // K
constexpr double kEps = 1e-8;
constexpr double kDamping = 0.95;    // phage lambda's oscillatory Jacobi mode
constexpr double kRateSpread = 0.3;  // per-reaction log-rate spread of the points
constexpr double kRateJitter = 0.02; // seed perturbation of every point
constexpr int kSetupSamples = 15;  // up front, and again after every solve
constexpr int kSpmvReps = 20;

core::models::PhageLambdaParams model() {
  core::models::PhageLambdaParams p;
  p.cap_ci = p.cap_cro = 4;
  p.cap_ci2 = p.cap_cro2 = 2;
  return p;
}

}  // namespace

void run_sweep(const Args& args, Report& report) {
  const auto params = model();
  // Set-up: network build + stencil compile. Samples are taken before and
  // between the solves, so the median spans the whole run.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const double cpu0 = process_cpu_seconds();
    ScopedSpan all("sweep.setup");
    std::unique_ptr<core::ReactionNetwork> n;
    {
      ScopedSpan s("core.build_network");
      n = std::make_unique<core::ReactionNetwork>(core::models::phage_lambda(params));
    }
    std::unique_ptr<solver::StencilOperator> op;
    {
      ScopedSpan s("core.stencil_compile");
      op = std::make_unique<solver::StencilOperator>(*n, core::models::phage_lambda_initial(params));
    }
    setup_s.push_back(process_cpu_seconds() - cpu0);
    return std::make_pair(std::move(n), std::move(op));
  };
  for (int i = 0; i + 1 < kSetupSamples; ++i) (void)set_up();
  auto [net, anchor] = set_up();
  const core::State initial = core::models::phage_lambda_initial(params);
  const core::StencilTable& table = anchor->table();

  // The K points are a fixed spread around the stock rates, perturbed by
  // the seed, so every seed sweeps about the same amount of work.
  Xoshiro256 spread(0x73776565ULL);
  Xoshiro256 rng(args.seed ^ 0x73776565ULL);
  std::vector<std::vector<real_t>> rates(kPoints);
  for (auto& rk : rates) {
    for (const auto& r : net->reactions()) {
      rk.push_back(r.rate * jitter_factor(spread, kRateSpread) * jitter_factor(rng, kRateJitter));
    }
  }

  solver::EnsembleOptions eopt;  // batching, continuation, GMRES fallback on
  eopt.jacobi.eps = kEps;
  eopt.jacobi.damping = kDamping;

  solver::EnsembleResult res;
  std::vector<std::uint64_t> iterations;
  std::vector<std::uint64_t> gmres_points;
  std::vector<double> cpu_util;
  const int threads = util::max_threads();
  const Reps reps = measure_reps(args.seconds, args.trace, [&] {
    res = solver::EnsembleResult{};  // one result resident at a time
    const Timing t = timed([&] {
      ScopedSpan s("solver.solve_ensemble");
      res = solver::solve_ensemble(table, rates, eopt);
    });
    cpu_util.push_back(t.cpu / (t.wall * threads));
    std::uint64_t it = 0;
    std::uint64_t gm = 0;
    for (std::size_t k = 0; k < res.points.size(); ++k) {
      const auto& pt = res.points[k];
      it += pt.jacobi.iterations;
      gm += pt.gmres_used ? 1 : 0;
      report.check(pt.converged, "point " + std::to_string(k) + " did not converge");
    }
    iterations.push_back(it);
    gmres_points.push_back(gm);
    for (int i = 0; i < kSetupSamples; ++i) (void)set_up();
    return t;
  });

  // Every point: residual against an independently assembled CSR
  // generator of that point's network, and unit mass.
  const verify::Scenario base = serve::scenario_from_network("sweep", *net, initial, 1'000'000);
  double worst = 0.0;
  for (std::size_t k = 0; k < rates.size(); ++k) {
    verify::Scenario sc = base;
    for (std::size_t r = 0; r < sc.reactions.size(); ++r) sc.reactions[r].rate = rates[k][r];
    const core::ReactionNetwork point_net = verify::build_network(sc);
    const core::StateSpace space(point_net, initial, 1'000'000);
    std::vector<real_t> p(static_cast<std::size_t>(space.size()));
    anchor->gather_to(space, res.points[k].p, p);
    const double mass = solver::norm_l1(p);
    const double resid = csr_residual(core::rate_matrix(space), p);
    worst = std::max(worst, resid);
    report.check(std::abs(mass - 1.0) <= 1e-12 && resid <= 2.0 * kEps,
                 "point " + std::to_string(k) + ": mass " + fmt(mass) +
                     ", CSR residual " + fmt(resid));
  }
  // The first lane of the first block starts from the uniform guess, so
  // it must be bitwise the single-RHS jacobi_solve of that point.
  {
    const int point = res.order.front();
    const auto& pr = res.points[static_cast<std::size_t>(point)];
    const solver::StencilOperator single(
        core::StencilTable(table, rates[static_cast<std::size_t>(point)]),
        solver::StencilMode::kPropensityCache);
    const auto active = solver::box_active_rows(table);
    real_t rows = 0;
    for (const auto a : active) rows += a;
    std::vector<real_t> x(active.size());
    for (std::size_t i = 0; i < x.size(); ++i) x[i] = active[i] ? 1.0 / rows : 0.0;
    const auto r = solver::jacobi_solve(single, single.inf_norm(), std::span<real_t>(x), eopt.jacobi);
    const bool same = !pr.gmres_used && r.iterations == pr.jacobi.iterations &&
                      std::memcmp(x.data(), pr.p.data(), x.size() * sizeof(real_t)) == 0;
    report.check(same, "batched lane of point " + std::to_string(point) +
                           " differs from the single-RHS jacobi_solve");
  }
  report.check_repeats("sweep.iterations_total", iterations);
  report.check_repeats("sweep.gmres_points", gmres_points);
  report.note("sweep: " + std::to_string(kPoints) + " points over a " +
              std::to_string(table.box_rows()) + "-row box, " +
              std::to_string(iterations.front()) + " iterations in total, worst CSR residual " +
              fmt(worst));

  const double solve = median(reps.untraced);
  report.metric("setup_s", median(setup_s));
  report.metric("solve_s", solve);
  report.metric("p50_ms", 1e3 * solve);
  report.metric("p99_ms", 1e3 * percentile(reps.untraced, 99));
  report.metric("capacity_rps", 1.0 / solve);
  report.metric("peak_rss_mb", reps.peak_rss_mb);

  if (!args.trace) return;
  report.metric("core.stencil_compile_s",
                median(Tracer::instance().durations("core.stencil_compile")));
  report.metric("solver.cpu_util", median(cpu_util));
  report.metric("wall.solve_s", median(reps.untraced_wall));
  report.metric("sweep.iterations_total", static_cast<double>(iterations.front()));
  report.metric("sweep.gmres_points", static_cast<double>(gmres_points.front()));
  std::size_t by_jacobi = 0;
  for (const auto& pt : res.points) {
    by_jacobi += pt.jacobi.reason == solver::StopReason::kConverged ? 1 : 0;
  }
  report.metric("sweep.jacobi_converged_frac",
                static_cast<double>(by_jacobi) / static_cast<double>(kPoints));
  report.metric("trace.overhead_frac", median(reps.traced) / solve - 1.0);

  // One block's batched operator, timed on its own.
  const solver::EnsembleStructure structure(table);
  std::vector<std::vector<real_t>> block;
  for (int q = 0; q < eopt.batch_width && q < kPoints; ++q) {
    block.push_back(rates[static_cast<std::size_t>(res.order[static_cast<std::size_t>(q)])]);
  }
  const solver::BatchedStencilOperator bop(structure, block);
  const std::size_t len = static_cast<std::size_t>(bop.nrows()) * block.size();
  std::vector<real_t> bx(len, 1.0 / static_cast<real_t>(bop.nrows()));
  std::vector<real_t> by(len);
  for (int i = 0; i < kSpmvReps; ++i) {
    ScopedSpan s("solver.batched_multiply");
    bop.multiply(bx, by);
  }
  report.metric("sweep.batched_spmv_ms",
                1e3 * median(Tracer::instance().durations("solver.batched_multiply")));
}

}  // namespace perfbench
