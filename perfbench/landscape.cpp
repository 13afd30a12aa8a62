// landscape: one fixed-buffer steady-state solve of the toggle switch
// through the library-default matrix-free path (StencilOperator +
// jacobi_solve at eps = 1e-8). Every solver vector is larger than an 8 MiB
// per-core L2, but the sweep splits rows across all threads, so each
// thread's slices of x and y fit in its own L2 and the whole working set
// fits a large shared LLC: the sweep is cache-resident, not DRAM-bound, on
// such a host. The DFS enumeration of ~1.1M states dominates setup.
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "checks.hpp"
#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "solver/jacobi.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/vector_ops.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cmesolve;

constexpr std::int32_t kCap = 520;     // 4 * 521^2 = 1.09M states, 8.3 MiB/vector
constexpr double kEps = 1e-8;          // the paper's Table IV tolerance
constexpr double kRateJitter = 0.005;  // seed jitter on the four rate constants
constexpr int kSetupReps = 3;
constexpr int kSpmvReps = 20;

struct Problem {
  std::unique_ptr<core::ReactionNetwork> net;
  std::unique_ptr<core::StateSpace> space;
  std::unique_ptr<solver::StencilOperator> op;
};

core::models::ToggleSwitchParams params_for(std::uint64_t seed) {
  Xoshiro256 rng(seed ^ 0x6c616e64ULL);
  core::models::ToggleSwitchParams p;
  p.cap_a = p.cap_b = kCap;
  p.synth *= jitter_factor(rng, kRateJitter);
  p.degrade *= jitter_factor(rng, kRateJitter);
  p.bind *= jitter_factor(rng, kRateJitter);
  p.unbind *= jitter_factor(rng, kRateJitter);
  return p;
}

Problem set_up(const core::models::ToggleSwitchParams& p) {
  ScopedSpan all("landscape.setup");
  Problem pr;
  core::State initial;
  {
    ScopedSpan s("core.build_network");
    pr.net = std::make_unique<core::ReactionNetwork>(core::models::toggle_switch(p));
    initial = core::models::toggle_switch_initial(p);
  }
  {
    ScopedSpan s("core.enumerate");
    pr.space = std::make_unique<core::StateSpace>(*pr.net, initial, 50'000'000);
  }
  {
    ScopedSpan s("core.stencil_compile");
    pr.op = std::make_unique<solver::StencilOperator>(*pr.net, initial);
  }
  return pr;
}

}  // namespace

void run_landscape(const Args& args, Report& report) {
  const auto params = params_for(args.seed);

  std::vector<double> setup_s;
  Problem pr;
  for (int i = 0; i < kSetupReps; ++i) {
    pr = Problem{};  // keep one copy resident
    setup_s.push_back(timed([&] { pr = set_up(params); }).cpu);
  }
  const auto& op = *pr.op;
  const auto& space = *pr.space;
  const auto n = static_cast<std::size_t>(op.nrows());

  solver::JacobiOptions jopt;
  jopt.eps = kEps;
  std::vector<real_t> uniform(static_cast<std::size_t>(space.size()),
                              1.0 / static_cast<real_t>(space.size()));
  std::vector<real_t> x(n);
  std::vector<std::uint64_t> iterations;
  std::vector<double> cpu_util;
  const int threads = util::max_threads();
  const Reps reps = measure_reps(args.seconds, args.trace, [&] {
    solver::JacobiResult r;
    const Timing t = timed([&] {
      ScopedSpan s("solver.jacobi_solve");
      op.scatter_from(space, uniform, x);
      r = solver::jacobi_solve(op, op.inf_norm(), std::span<real_t>(x), jopt);
    });
    cpu_util.push_back(t.cpu / (t.wall * threads));
    iterations.push_back(r.iterations);
    report.check(r.reason == solver::StopReason::kConverged,
                 std::string("jacobi stopped: ") + solver::to_string(r.reason));
    return t;
  });

  // Output checks: residual against an independently assembled CSR
  // generator over the enumerated space, and unit mass.
  std::vector<real_t> p(static_cast<std::size_t>(space.size()));
  op.gather_to(space, x, p);
  const double mass = solver::norm_l1(p);
  report.check(std::abs(mass - 1.0) <= 1e-12,
               "||p||_1 = " + fmt(mass));
  {
    const double resid = csr_residual(core::rate_matrix(space), p);
    // The solver's residual is evaluated on the stencil operator; the CSR
    // recomputation sums in another order, hence the 2x slack.
    report.check(resid <= 2.0 * kEps,
                 "CSR residual " + fmt(resid) + " above 2*eps");
    report.note("landscape: " + std::to_string(space.size()) + " states, " +
                std::to_string(iterations.front()) + " iterations, CSR residual " +
                fmt(resid) + ", " +
                std::to_string(reps.untraced.size() + reps.traced.size()) +
                " measured solves");
  }
  report.check_repeats("solver.iterations", iterations);

  const double solve = median(reps.untraced);
  report.metric("setup_s", median(setup_s));
  report.metric("solve_s", solve);
  report.metric("p50_ms", 1e3 * solve);
  report.metric("p99_ms", 1e3 * percentile(reps.untraced, 99));
  report.metric("capacity_rps", 1.0 / solve);
  report.metric("peak_rss_mb", reps.peak_rss_mb);

  if (!args.trace) return;
  report.metric("core.enumerate_s", median(Tracer::instance().durations("core.enumerate")));
  report.metric("core.stencil_compile_s",
                median(Tracer::instance().durations("core.stencil_compile")));
  report.metric("core.states", static_cast<double>(space.size()));
  report.metric("solver.iterations", static_cast<double>(iterations.front()));
  report.metric("solver.sweep_ms",
                1e3 * median(reps.untraced_wall) / static_cast<double>(iterations.front()));
  report.metric("wall.solve_s", median(reps.untraced_wall));
  report.metric("solver.cpu_util", median(cpu_util));
  report.metric("trace.overhead_frac", median(reps.traced) / solve - 1.0);

  std::vector<real_t> y(n);
  for (int i = 0; i < kSpmvReps; ++i) {
    ScopedSpan s("solver.multiply");
    op.multiply(x, y);
  }
  const double spmv = median(Tracer::instance().durations("solver.multiply"));
  report.metric("solver.spmv_ms", 1e3 * spmv);
  // Computed bytes: x read once and y written once per sweep.
  report.metric("solver.gbps_computed", 2.0 * 8.0 * static_cast<double>(n) / spmv / 1e9);
}

}  // namespace perfbench
