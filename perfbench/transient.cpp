// transient: fsp::solve_transient on the toggle switch over a 16-point
// time grid with the default uniformization engine and a fixed sink-mass
// tolerance. The only workload in FSP expansion rounds and the transient
// engine.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/models.hpp"
#include "core/state_space.hpp"
#include "core/rate_matrix.hpp"
#include "fsp/fsp.hpp"
#include "solver/operators.hpp"
#include "solver/transient.hpp"
#include "solver/vector_ops.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cmesolve;

constexpr std::int32_t kCap = 60;     // box bound; FSP grows inside it
constexpr double kHorizon = 20.0;
constexpr int kGridPoints = 16;
constexpr double kTol = 1e-8;         // sink-mass bound at the final time
constexpr double kRateJitter = 0.02;
constexpr int kSetupSamples = 5;    // up front, and again after every solve
constexpr int kSetupBatch = 50;     // set-ups per sample

}  // namespace

void run_transient(const Args& args, Report& report) {
  Xoshiro256 rng(args.seed ^ 0x7472616eULL);
  core::models::ToggleSwitchParams params;
  params.cap_a = params.cap_b = kCap;
  params.synth *= jitter_factor(rng, kRateJitter);
  params.degrade *= jitter_factor(rng, kRateJitter);
  params.bind *= jitter_factor(rng, kRateJitter);
  params.unbind *= jitter_factor(rng, kRateJitter);
  fsp::TransientFspOptions opt;
  opt.tol = kTol;
  // With OpenMP on one thread (run.py) the engine's matvecs are serial and
  // its vector ops too short to gain from the thread pool: a solve took
  // 3.25 s of wall time spread over all CPUs and 2.42 s on one CPU at a
  // time. So the process runs on one CPU at a time (CpuRotation).
  const CpuRotation rotation;

  // Set-up is everything before the first propagation: network, grid, and
  // the FSP's seed projection (BFS of opt.seed_states states) with its
  // absorbing assembly, built through the same public calls as
  // solve_transient's first round. solve_transient takes the network and
  // builds its own projection, so the set-up is timed on its own. One
  // set-up takes well under a millisecond, so a sample is the mean of a
  // batch; samples are taken before and between the solves, so the median
  // spans the whole run.
  std::vector<double> setup_s;
  std::vector<real_t> grid;
  const auto sample_setup = [&] {
    ScopedSpan s("transient.setup");
    const double cpu0 = process_cpu_seconds();
    for (int b = 0; b < kSetupBatch; ++b) {
      const core::ReactionNetwork n = core::models::toggle_switch(params);
      const core::State x0 = core::models::toggle_switch_initial(params);
      grid.clear();
      for (int g = 1; g <= kGridPoints; ++g) grid.push_back(kHorizon * g / kGridPoints);
      core::DynamicStateSpace space(n, x0);
      space.grow_bfs(opt.seed_states);
      core::ProjectedRateMatrix matrix(n);
      matrix.extend(space);
      const auto as = matrix.assemble_absorbing(space);
      if (as.a.nrows != space.size() || space.find(x0) < 0) {
        throw std::logic_error("transient set-up: bad seed projection");
      }
    }
    setup_s.push_back((process_cpu_seconds() - cpu0) / kSetupBatch);
  };
  for (int i = 0; i < kSetupSamples; ++i) sample_setup();
  const core::ReactionNetwork net = core::models::toggle_switch(params);
  const core::State initial = core::models::toggle_switch_initial(params);

  std::unique_ptr<fsp::TransientFspResult> res;
  std::vector<std::uint64_t> rounds, states, matvecs;
  const Reps reps = measure_reps(args.seconds, args.trace, [&] {
    res.reset();
    const Timing t = timed([&] {
      ScopedSpan s("fsp.solve_transient");
      res = std::make_unique<fsp::TransientFspResult>(
          fsp::solve_transient(net, initial, grid, opt));
    });
    rounds.push_back(res->rounds.size());
    states.push_back(static_cast<std::uint64_t>(res->space.size()));
    matvecs.push_back(res->total_matvecs);
    for (int i = 0; i < kSetupSamples; ++i) sample_setup();
    report.check(res->converged && !res->truncated_early && res->error_bound <= kTol,
                 "transient FSP: converged " + std::to_string(res->converged) +
                     ", truncated_early " + std::to_string(res->truncated_early) +
                     ", error bound " + fmt(res->error_bound));
    return t;
  });

  // Mass ledger at every checkpoint: what the projection kept plus what
  // the sink absorbed is the whole probability.
  double worst = 0.0;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const double total = solver::norm_l1(res->marginals[i]) + res->sink_mass[i];
    worst = std::max(worst, std::abs(total - 1.0));
  }
  report.check(worst <= 1e-12, "||p_i||_1 + sink_i deviates from 1 by " + fmt(worst));
  report.check_repeats("fsp.rounds", rounds);
  report.check_repeats("fsp.states_final", states);
  report.check_repeats("fsp.matvecs_total", matvecs);
  report.note("transient: " + std::to_string(rounds.front()) + " rounds, " +
              std::to_string(states.front()) + " states, " +
              std::to_string(matvecs.front()) + " matvecs, error bound " +
              fmt(res->error_bound));

  const double solve = median(reps.untraced);
  report.metric("setup_s", median(setup_s));
  report.metric("solve_s", solve);
  report.metric("p50_ms", 1e3 * solve);
  report.metric("p99_ms", 1e3 * percentile(reps.untraced, 99));
  report.metric("capacity_rps", 1.0 / solve);
  report.metric("peak_rss_mb", reps.peak_rss_mb);

  if (!args.trace) return;
  report.metric("fsp.rounds", static_cast<double>(rounds.front()));
  report.metric("fsp.states_final", static_cast<double>(states.front()));
  report.metric("fsp.matvecs_total", static_cast<double>(matvecs.front()));
  report.metric("fsp.matvecs_wasted_frac",
                static_cast<double>(res->total_matvecs - res->rounds.back().matvecs) /
                    static_cast<double>(res->total_matvecs));
  report.metric("trace.overhead_frac", median(reps.traced) / solve - 1.0);
  report.metric("wall.solve_s", median(reps.untraced_wall));

  // Replay the final round through the public pieces the FSP loop uses:
  // absorbing assembly, then the checkpointed uniformization walk.
  core::ProjectedRateMatrix matrix(net);
  std::unique_ptr<core::ProjectedRateMatrix::Assembly> as;
  {
    ScopedSpan s("core.assemble_absorbing");
    matrix.extend(res->space);
    as = std::make_unique<core::ProjectedRateMatrix::Assembly>(
        matrix.assemble_absorbing(res->space));
  }
  const solver::CsrOperator op(as->a);
  std::vector<real_t> p(static_cast<std::size_t>(res->space.size()), 0.0);
  p[static_cast<std::size_t>(res->space.find(initial))] = 1.0;
  solver::TransientOptions topt = opt.uniformization;
  topt.renormalize = false;
  solver::TransientResult tr;
  {
    ScopedSpan s("solver.transient_solve_grid");
    tr = solver::transient_solve_grid(op, grid, std::span<real_t>(p),
                                      [](std::size_t, std::span<const real_t>) {}, topt);
  }
  report.check(tr.matvecs == res->rounds.back().matvecs,
               "final-round replay took " + std::to_string(tr.matvecs) +
                   " matvecs, the FSP loop " + std::to_string(res->rounds.back().matvecs));
  const double propagate = median(Tracer::instance().durations("solver.transient_solve_grid"));
  report.metric("fsp.assemble_s", median(Tracer::instance().durations("core.assemble_absorbing")));
  report.metric("transient.propagate_s", propagate);
  report.metric("transient.matvec_us", 1e6 * propagate / static_cast<double>(tr.matvecs));
}

}  // namespace perfbench
