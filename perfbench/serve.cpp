// serve: Zipf traffic over rate-jittered scenario families, submitted in
// cmesolve.repro/1 wire form through serve::Controller.
//
// The traffic follows the repository's load harness where it has a
// default: Zipf exponent and the 10% interactive / 10% batch priority mix
// of serve::LoadOptions, and the family rate jitter of cme_serve_load
// (0.15). The variant pool is larger than that tool's (24 per family),
// because a pool smaller than the controller's default result cache (128
// entries) would stop missing once warm: here it is 2.3 times the cache, so the LRU settles at a steady state in which about one request in
// five misses (build, enumerate, assemble, solve with a warm start from a
// cached neighbour, insert). Set-up starts a controller and primes its
// cache with each family's base variant; each phase runs on a freshly set
// up controller and lets the steady state form before it measures.
//
// Phase 1, in the traced run only, is an open loop: a Poisson schedule at
// a fixed rate well below capacity, built from the seed; each request's
// wall-clock latency runs from the time it was due, so a stalled
// controller is charged for the requests that pile up behind the stall.
// Wall-clock latency on a shared host moves with the CPU time the
// hypervisor steals, so it goes to the per-layer table. Phase 2 is a
// closed loop with one request in flight, in batches of a fixed request
// count: each request's process CPU seconds give the end-to-end
// percentiles, and a batch's CPU seconds give solve_s and capacity_rps
// (requests per CPU second). The closed loop and the set-up samples run
// the process on one CPU at a time (CpuRotation). The queue is sized so
// that no phase sheds (a shed counts as failed): requests wait in the
// controller's three priority queues, but priority eviction, which runs
// only when the queue is full, is not exercised.
//
// Threads: workers = nproc/2; phase 1 adds the generator and one thread
// collecting responses, phase 2 one client, so no phase runs more threads
// than nproc. The CSR sweep of a miss carries an OpenMP pragma that does
// not honour the controller's inline region, so run.py starts the
// benchmark with OMP_NUM_THREADS=1; otherwise every worker would fan out
// to nproc more threads.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "checks.hpp"
#include "core/models.hpp"
#include "core/rate_matrix.hpp"
#include "core/state_space.hpp"
#include "serve/controller.hpp"
#include "serve/workload.hpp"
#include "solver/jacobi.hpp"
#include "solver/operators.hpp"
#include "solver/stencil_operator.hpp"
#include "solver/vector_ops.hpp"
#include "spans.hpp"
#include "util/parallel.hpp"
#include "verify/repro_io.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace cmesolve;

// Open-loop arrivals per second: about a quarter of the closed-loop
// capacity this workload measured on a 4-vCPU host (medians of
// 1,069-1,127 req/s, see the README), and ~2,100 measured requests in a default run.
constexpr double kRate = 300.0;
constexpr double kWarmSeconds = 1.0;     // phase 1: unmeasured lead-in
constexpr double kOpenShare = 0.6;       // of --seconds measured in phase 1
constexpr std::size_t kBatch = 1000;     // phase 2: requests per measured batch
constexpr std::size_t kVariants = 100;   // per family
constexpr double kFamilyJitter = 0.15;   // cme_serve_load's default --jitter
constexpr double kLateLimitMs = 20.0;    // p99 generator lateness limit
constexpr double kRefEps = 1e-12;        // reference solve tolerance
constexpr double kMatchL1 = 1e-5;        // served vs reference, L1
constexpr int kSetupSamples = 7;         // at each of three points in the run
constexpr std::size_t kReplays = 64;     // traced run: misses replayed by stage

/// Three families of different topology whose cold miss costs about 10 ms
/// on one core (serve.miss.* in a traced run); builtin_families' phage
/// lambda costs 4-5 s a miss, too slow for an open loop. The variants are
/// the same for every seed (the seed picks which are hot and when they
/// arrive), so every seed serves the same mix of miss costs.
std::vector<verify::Scenario> variants_for() {
  std::vector<verify::Scenario> bases;
  {
    core::models::ToggleSwitchParams p;
    p.cap_a = p.cap_b = 10;
    p.synth = 8.0;
    bases.push_back(serve::scenario_from_network(
        "toggle-10", core::models::toggle_switch(p),
        core::models::toggle_switch_initial(p), 200'000));
  }
  {
    core::models::BrusselatorParams p;
    p.cap_x = 50;
    p.cap_y = 25;
    p.a = 10.0;
    bases.push_back(serve::scenario_from_network(
        "brusselator-50", core::models::brusselator(p),
        core::models::brusselator_initial(p), 200'000));
  }
  {
    core::models::SchnakenbergParams p;
    p.cap_x = 30;
    p.cap_y = 20;
    p.a = 5.0;
    p.b = 3.0;
    bases.push_back(serve::scenario_from_network(
        "schnakenberg-30", core::models::schnakenberg(p),
        core::models::schnakenberg_initial(p), 200'000));
  }
  std::vector<verify::Scenario> out;
  for (std::size_t f = 0; f < bases.size(); ++f) {
    for (auto& v : serve::make_sweep_family(bases[f], kVariants, kFamilyJitter, f + 1)
                       .variants) {
      out.push_back(std::move(v));
    }
  }
  return out;
}

/// Per-request priorities in LoadOptions' default mix.
std::vector<serve::Priority> priorities(std::size_t count, std::uint64_t seed) {
  const serve::LoadOptions mix;
  Xoshiro256 rng(seed);
  std::vector<serve::Priority> out(count, serve::Priority::kNormal);
  for (auto& p : out) {
    const double u = rng.uniform();
    if (u < mix.interactive_fraction) {
      p = serve::Priority::kInteractive;
    } else if (u < mix.interactive_fraction + mix.batch_fraction) {
      p = serve::Priority::kBatch;
    }
  }
  return out;
}

bool ok(const serve::SolveResponse& r) {
  return r.status == serve::Status::kOk && r.reason == solver::StopReason::kConverged;
}

std::uint64_t hash_vector(const std::vector<real_t>& p) {
  std::uint64_t h = 0xcbf29ce484222325ULL ^ p.size();
  for (const real_t v : p) {
    std::uint64_t w = 0;
    std::memcpy(&w, &v, sizeof(w));
    h = (h ^ w) * 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

/// What the benchmark keeps of one response. The stationary vector itself
/// is kept once per distinct (variant, bytes) in the VectorStore, so the
/// client's copies do not inflate peak_rss_mb.
struct Served {
  std::size_t variant = 0;
  bool ok = false;
  bool hit = false;
  std::string error;
  double queue_s = 0.0;
  double service_s = 0.0;
  std::uint64_t hash = 0;
};

using VectorKey = std::pair<std::size_t, std::uint64_t>;  // (variant, hash)

class VectorStore {
 public:
  Served keep(std::size_t variant, serve::SolveResponse&& r) {
    Served s;
    s.variant = variant;
    s.ok = ok(r);
    s.hit = r.cache_hit;
    s.queue_s = r.queue_seconds;
    s.service_s = r.solve_seconds;
    if (!s.ok) {
      s.error = std::string(serve::to_string(r.status)) + " " + r.error + " " +
                solver::to_string(r.reason);
      return s;
    }
    s.hash = hash_vector(r.p);
    const std::lock_guard<std::mutex> lock(m_);
    vectors_.try_emplace({variant, s.hash}, std::move(r.p));
    return s;
  }
  /// Distinct vectors; read only after every writer has finished.
  [[nodiscard]] const std::map<VectorKey, std::vector<real_t>>& vectors() const {
    return vectors_;
  }

 private:
  std::mutex m_;
  std::map<VectorKey, std::vector<real_t>> vectors_;  // guarded by m_
};

double to_ms(const std::vector<double>& s, double q) { return 1e3 * percentile(s, q); }

Clock::duration secs(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

}  // namespace

void run_serve(const Args& args, Report& report) {
  if (const char* omp = std::getenv("OMP_NUM_THREADS");
      omp == nullptr || std::string(omp) != "1") {
    throw std::runtime_error("serve runs with OMP_NUM_THREADS=1 (run.py sets it)");
  }
  const int np = nproc();
  serve::ServeOptions sopt;  // default cache capacity
  sopt.workers = std::max(1, np / 2);
  sopt.queue_capacity = 1 << 16;  // an open loop below capacity must not shed

  // Inputs: the pooled variants in wire form, a seeded rank -> variant
  // permutation (so the hot set differs by seed), and the Poisson schedule.
  const std::vector<verify::Scenario> variants = variants_for();
  std::vector<std::string> wire;
  for (const auto& v : variants) wire.push_back(verify::serialize_repro(v));
  // Popularity rank r goes to family r % families, so every seed gives
  // each family the same share of the traffic (and the run the same mix of
  // miss costs); the seed shuffles which of a family's variants are hot.
  Xoshiro256 rng(args.seed ^ 0x73657276ULL);
  const std::size_t families = variants.size() / kVariants;
  std::vector<std::size_t> perm(variants.size());
  for (std::size_t f = 0; f < families; ++f) {
    std::vector<std::size_t> order(kVariants);
    for (std::size_t i = 0; i < kVariants; ++i) order[i] = f * kVariants + i;
    for (std::size_t i = kVariants; i > 1; --i) std::swap(order[i - 1], order[rng.bounded(i)]);
    for (std::size_t i = 0; i < kVariants; ++i) perm[i * families + f] = order[i];
  }
  const double zipf_s = serve::LoadOptions{}.zipf_s;
  const auto trace = [&](std::size_t count, std::uint64_t seed) {
    std::vector<std::size_t> t = serve::zipf_trace(variants.size(), zipf_s, count, seed);
    for (auto& v : t) v = perm[v];
    return t;
  };
  const double open_s = kWarmSeconds + kOpenShare * args.seconds;
  std::vector<double> due;  // seconds after phase start
  for (double t = 0.0;;) {
    t += -std::log(1.0 - rng.uniform()) / kRate;
    if (t >= open_s) break;
    due.push_back(t);
  }
  const auto open_trace = trace(due.size(), args.seed * 2 + 1);
  const auto open_pri = priorities(due.size(), args.seed * 2 + 1);

  VectorStore store;
  std::vector<Served> primed;

  // Set-up: start a controller and prime its cache with every family's
  // base variant (cold solves), so misses can warm-start. Set-up samples
  // run on one CPU at a time, like the closed loop. Each phase runs on a
  // freshly set-up controller; further samples are taken before phase 1,
  // between the phases (traced run) and after phase 2 (never beside a
  // running controller), so the median spans the whole run.
  std::vector<double> setup_s;
  const auto set_up = [&] {
    const double cpu0 = process_cpu_seconds();
    ScopedSpan s("serve.setup");
    auto c = std::make_unique<serve::Controller>(sopt);
    std::vector<std::future<serve::SolveResponse>> base;
    for (std::size_t v = 0; v < variants.size(); v += kVariants) base.push_back(c->submit(wire[v]));
    std::vector<serve::SolveResponse> done;
    for (auto& f : base) done.push_back(f.get());
    setup_s.push_back(process_cpu_seconds() - cpu0);
    for (std::size_t f = 0; f < done.size(); ++f) {
      primed.push_back(store.keep(f * kVariants, std::move(done[f])));
    }
    return c;
  };
  const auto sample_setup = [&] {
    const CpuRotation rotation;
    for (int i = 0; i < kSetupSamples; ++i) set_up()->shutdown();
  };
  sample_setup();

  // ---------------------------------------------------------------- phase 1
  // Wall-clock latency under an open loop is measured in the traced run
  // only: it feeds the per-layer table, not an end-to-end metric.
  const std::size_t n_open = args.trace ? due.size() : 0;
  std::vector<Served> open(n_open);
  std::vector<double> late_s(n_open);
  std::vector<double> latency_s(n_open);
  std::vector<std::future<serve::SolveResponse>> futures(n_open);
  std::vector<Clock::time_point> admitted(n_open);
  std::atomic<std::size_t> published{0};
  serve::ServeStats open_stats;
  if (args.trace) {
    const auto ctl_ptr = set_up();
    serve::Controller& ctl = *ctl_ptr;
    ScopedSpan phase("serve.open_loop");
    const Clock::time_point start = Clock::now();
    std::thread collector([&] {
      for (std::size_t i = 0; i < n_open; ++i) {
        while (published.load(std::memory_order_acquire) <= i) {
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        open[i] = store.keep(open_trace[i], futures[i].get());
      }
    });
    for (std::size_t i = 0; i < n_open; ++i) {
      const auto when = start + secs(due[i]);
      // Sleep to just short of the due time, then spin: wake-up latency
      // would otherwise count as generator lateness.
      std::this_thread::sleep_until(when - std::chrono::microseconds(300));
      while (Clock::now() < when) {
      }
      const auto t0 = Clock::now();
      late_s[i] = seconds_between(when, t0);
      {
        ScopedSpan s("serve.submit", i + 1);
        futures[i] = ctl.submit(wire[open_trace[i]], open_pri[i]);
      }
      admitted[i] = Clock::now();
      published.store(i + 1, std::memory_order_release);
    }
    collector.join();
    ctl.shutdown();
    open_stats = ctl.stats();
    for (std::size_t i = 0; i < n_open; ++i) {
      const auto when = start + secs(due[i]);
      const Served& s = open[i];
      // Completion = admission + queue wait + service, as the response
      // reports them; a request that did not succeed misses every limit.
      latency_s[i] = s.ok ? seconds_between(when, admitted[i]) + s.queue_s + s.service_s
                          : std::numeric_limits<double>::infinity();
      if (Tracer::instance().enabled()) {
        const auto q_end = admitted[i] + secs(s.queue_s);
        const auto s_end = q_end + secs(s.service_s);
        const int req = Tracer::instance().record("serve.request", when, s_end, phase.id(), i + 1);
        Tracer::instance().record("serve.queue", admitted[i], q_end, req, i + 1);
        Tracer::instance().record(s.hit ? "serve.hit" : "serve.miss", q_end, s_end, req, i + 1);
      }
    }
  }
  // Only requests due after the lead-in are measured.
  const auto first = std::min(n_open, static_cast<std::size_t>(
      std::lower_bound(due.begin(), due.end(), kWarmSeconds) - due.begin()));
  const std::vector<double> lat(latency_s.begin() + static_cast<std::ptrdiff_t>(first),
                                latency_s.end());
  const std::vector<double> late(late_s.begin() + static_cast<std::ptrdiff_t>(first),
                                 late_s.end());

  if (args.trace) sample_setup();

  // ---------------------------------------------------------------- phase 2
  // One client, one request in flight: each request's CPU seconds (all
  // threads of the process: the client's submit, the worker's service)
  // are its own. Only one thread is runnable at a time, so the process
  // runs on one CPU at a time (CpuRotation).
  std::vector<Served> closed;
  std::vector<double> request_cpu_s;  // untraced measured batches
  serve::ServeStats closed_stats;
  Reps reps;
  {
    const CpuRotation rotation;
    const auto ctl_ptr = set_up();
    serve::Controller& ctl = *ctl_ptr;
    std::uint64_t round = 0;
    const auto run_batch = [&](std::size_t count) {
      const bool lead_in = round == 0;
      const std::uint64_t batch_seed = args.seed * 2 + 2 + 1000 * round++;
      const auto order = trace(count, batch_seed);
      const auto pri = priorities(count, batch_seed);
      std::vector<Served> batch(count);
      std::vector<double> cpu(count);
      ScopedSpan phase("serve.closed_loop");
      const Timing t = timed([&] {
        for (std::size_t i = 0; i < count; ++i) {
          const double cpu0 = process_cpu_seconds();
          serve::SolveResponse r = ctl.submit(wire[order[i]], pri[i]).get();
          cpu[i] = process_cpu_seconds() - cpu0;
          batch[i] = store.keep(order[i], std::move(r));
        }
      });
      if (!lead_in && !Tracer::instance().enabled()) {
        for (std::size_t i = 0; i < count; ++i) {
          // A request that did not succeed misses every limit.
          request_cpu_s.push_back(batch[i].ok ? cpu[i] : std::numeric_limits<double>::infinity());
        }
      }
      closed.insert(closed.end(), batch.begin(), batch.end());
      return t;
    };
    // measure_reps' discarded first batch is the lead-in that fills the cache.
    const double closed_s = args.trace ? (1.0 - kOpenShare) * args.seconds : args.seconds;
    reps = measure_reps(closed_s, args.trace, [&] { return run_batch(kBatch); });
    ctl.shutdown();
    closed_stats = ctl.stats();
  }
  sample_setup();

  // ----------------------------------------------------------------- checks
  // Every distinct response vector is compared with an untimed reference
  // solve of its variant (the matrix-free stencil path at a much tighter
  // tolerance, mapped onto the daemon's DFS enumeration) and its residual
  // is recomputed on the assembled generator; a response passes when the
  // vector it returned passed. References run on all cores.
  std::vector<VectorKey> keys;
  for (const auto& kv : store.vectors()) keys.push_back(kv.first);
  std::vector<std::size_t> variant_begin;  // keys are sorted by variant
  for (std::size_t k = 0; k < keys.size(); ++k) {
    if (k == 0 || keys[k].first != keys[k - 1].first) variant_begin.push_back(k);
  }
  variant_begin.push_back(keys.size());
  std::vector<double> l1(keys.size()), resid(keys.size());
  std::vector<std::string> ref_error(keys.size());
  {
    std::atomic<std::size_t> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < np; ++t) {
      pool.emplace_back([&] {
        util::InlineRegion inline_region;
        for (std::size_t g = next++; g + 1 < variant_begin.size(); g = next++) {
          const verify::Scenario& sc = variants[keys[variant_begin[g]].first];
          const core::ReactionNetwork net = verify::build_network(sc);
          const core::StateSpace space(net, sc.initial, sc.max_states);
          const solver::StencilOperator op(net, sc.initial);
          std::vector<real_t> ref(static_cast<std::size_t>(space.size()),
                                  1.0 / static_cast<real_t>(space.size()));
          std::vector<real_t> x(static_cast<std::size_t>(op.nrows()));
          op.scatter_from(space, ref, x);
          solver::JacobiOptions jo;
          jo.eps = kRefEps;
          jo.stagnation_eps = 0.0;
          jo.damping = sc.jacobi_damping;
          const auto r = solver::jacobi_solve(op, op.inf_norm(), std::span<real_t>(x), jo);
          op.gather_to(space, x, ref);
          const sparse::Csr a = core::rate_matrix(space);
          for (std::size_t k = variant_begin[g]; k < variant_begin[g + 1]; ++k) {
            if (r.reason != solver::StopReason::kConverged) {
              ref_error[k] = std::string("reference solve stopped: ") + solver::to_string(r.reason);
            }
            const auto& p = store.vectors().at(keys[k]);
            if (p.size() != ref.size()) {
              ref_error[k] = "response has " + std::to_string(p.size()) + " states, reference " +
                             std::to_string(ref.size());
              continue;
            }
            for (std::size_t i = 0; i < p.size(); ++i) l1[k] += std::abs(p[i] - ref[i]);
            resid[k] = csr_residual(a, p);
          }
        }
      });
    }
    for (auto& th : pool) th.join();
  }
  std::map<VectorKey, bool> vector_ok;
  double worst_l1 = 0.0, worst_resid = 0.0;
  for (std::size_t k = 0; k < keys.size(); ++k) {
    const verify::Scenario& sc = variants[keys[k].first];
    const bool good =
        ref_error[k].empty() && l1[k] <= kMatchL1 && resid[k] <= 2.0 * sc.jacobi_eps;
    vector_ok[keys[k]] = good;
    worst_l1 = std::max(worst_l1, l1[k]);
    worst_resid = std::max(worst_resid, resid[k]);
    report.check(good, sc.name + ": " + ref_error[k] + " L1 distance to reference " +
                           fmt(l1[k]) + ", residual " + fmt(resid[k]));
  }
  const auto verify_all = [&](const std::vector<Served>& reqs) {
    for (const Served& s : reqs) {
      report.check(s.ok && vector_ok.at({s.variant, s.hash}),
                   "request for " + variants[s.variant].name + ": " + s.error);
    }
  };
  verify_all(primed);
  verify_all(open);
  verify_all(closed);

  report.check(request_cpu_s.size() >= 1000,
               "closed loop measured only " + std::to_string(request_cpu_s.size()) +
                   " requests; p99 needs >= 1000");
  report.note("serve: " + std::to_string(variants.size()) + " variants, " +
              std::to_string(keys.size()) + " distinct responses checked (worst L1 vs reference " +
              fmt(worst_l1) + ", worst residual " + fmt(worst_resid) + ")");
  report.note("serve closed loop: " + std::to_string(reps.untraced.size() + reps.traced.size()) +
              " batches of " + std::to_string(kBatch) + " after a lead-in batch, one request in "
              "flight, " + std::to_string(sopt.workers) + " workers; " +
              std::to_string(request_cpu_s.size()) + " requests in the percentiles; batch CPU s min " +
              fmt(percentile(reps.untraced, 0)) + ", median " + fmt(median(reps.untraced)) +
              ", max " + fmt(percentile(reps.untraced, 100)));

  // Whole-run throughput: batches differ in their miss count, so the CPU
  // seconds of all measured requests are pooled.
  double batch_cpu = 0.0;
  for (const double b : reps.untraced) batch_cpu += b;
  const double solve = batch_cpu / static_cast<double>(reps.untraced.size());
  report.metric("setup_s", median(setup_s));
  report.metric("solve_s", solve);
  report.metric("p50_ms", to_ms(request_cpu_s, 50));
  report.metric("p99_ms", to_ms(request_cpu_s, 99));
  report.metric("capacity_rps", static_cast<double>(kBatch) / solve);
  report.metric("peak_rss_mb", reps.peak_rss_mb);

  if (!args.trace) return;
  const double late_p99_ms = to_ms(late, 99);
  report.check(late_p99_ms <= kLateLimitMs,
               "open-loop generator ran late: p99 " + fmt(late_p99_ms) + " ms, limit " +
                   fmt(kLateLimitMs) + " ms");
  report.check(lat.size() >= 1000, "open loop measured only " + std::to_string(lat.size()) +
                                       " requests; p99 needs >= 1000");
  report.note("serve open loop: " + std::to_string(lat.size()) + " measured requests at " +
              fmt(kRate) + " req/s after a " + fmt(kWarmSeconds) +
              " s lead-in, " + std::to_string(sopt.workers) + " workers; generator late p50 " +
              fmt(to_ms(late, 50)) + " ms, p99 " + fmt(late_p99_ms) + " ms, max " +
              fmt(to_ms(late, 100)) + " ms");
  report.metric("wall.open_p50_ms", to_ms(lat, 50));
  report.metric("wall.open_p99_ms", to_ms(lat, 99));
  report.metric("trace.overhead_frac", median(reps.traced) / solve - 1.0);
  const auto submit = Tracer::instance().durations("serve.submit");
  report.metric("serve.admit_us.p50", 1e6 * percentile(submit, 50));
  report.metric("serve.admit_us.p99", 1e6 * percentile(submit, 99));
  std::vector<double> queue, hit_svc, miss_svc;
  for (std::size_t i = first; i < n_open; ++i) {
    const Served& s = open[i];
    if (!s.ok) continue;
    queue.push_back(s.queue_s);
    (s.hit ? hit_svc : miss_svc).push_back(s.service_s);
  }
  report.metric("serve.queue_ms.p50", to_ms(queue, 50));
  report.metric("serve.queue_ms.p99", to_ms(queue, 99));
  report.metric("serve.hit_service_ms.p50", to_ms(hit_svc, 50));
  report.metric("serve.hit_service_ms.p99", to_ms(hit_svc, 99));
  report.metric("serve.miss_service_ms.p50", to_ms(miss_svc, 50));
  report.metric("serve.miss_service_ms.p99", to_ms(miss_svc, 99));
  const auto& st = open_stats;
  report.metric("serve.hit_rate", static_cast<double>(st.cache_hits) /
                                      static_cast<double>(std::max<std::uint64_t>(st.completed, 1)));
  const std::uint64_t solves = st.warm_starts + st.cold_solves;
  report.metric("serve.warm_frac", static_cast<double>(st.warm_starts) /
                                       static_cast<double>(std::max<std::uint64_t>(solves, 1)));
  if (st.warm_starts > 0 && st.cold_solves > 0) {
    report.metric("serve.warm_iter_ratio",
                  (static_cast<double>(st.warm_iterations) / static_cast<double>(st.warm_starts)) /
                      (static_cast<double>(st.cold_iterations) / static_cast<double>(st.cold_solves)));
  }
  report.metric("serve.shed", static_cast<double>(st.shed + closed_stats.shed));
  report.metric("serve.failed", static_cast<double>(st.failed + closed_stats.failed));
  report.metric("serve.invalid", static_cast<double>(st.invalid + closed_stats.invalid));
  report.metric("serve.gen_late_ms", late_p99_ms);

  // The wire codec on its own: every phase-1 request parsed again.
  for (std::size_t i = 0; i < n_open; ++i) {
    ScopedSpan s("verify.parse_repro", i + 1);
    const verify::Scenario sc = verify::parse_repro(wire[open_trace[i]]);
    report.check(!sc.reactions.empty(), "parsed scenario has no reactions");
  }
  const auto parse = Tracer::instance().durations("verify.parse_repro");
  report.metric("verify.parse_us.p50", 1e6 * percentile(parse, 50));
  report.metric("verify.parse_us.p99", 1e6 * percentile(parse, 99));

  // A cold miss replayed stage by stage for the first kReplays distinct
  // variants served, on one thread as a worker runs it.
  {
    util::InlineRegion inline_region;
    for (std::size_t g = 0; g + 1 < variant_begin.size() && g < kReplays; ++g) {
      const std::size_t v = keys[variant_begin[g]].first;
      const verify::Scenario& sc = variants[v];
      std::unique_ptr<core::ReactionNetwork> net;
      {
        ScopedSpan s("core.build_network", v + 1);
        net = std::make_unique<core::ReactionNetwork>(verify::build_network(sc));
      }
      std::unique_ptr<core::StateSpace> space;
      {
        ScopedSpan s("core.enumerate", v + 1);
        space = std::make_unique<core::StateSpace>(*net, sc.initial, sc.max_states);
      }
      std::unique_ptr<sparse::Csr> a;
      {
        ScopedSpan s("core.rate_matrix", v + 1);
        a = std::make_unique<sparse::Csr>(core::rate_matrix(*space));
      }
      ScopedSpan s("solver.jacobi_solve", v + 1);
      const solver::CsrOperator op(*a);
      std::vector<real_t> x(static_cast<std::size_t>(a->nrows));
      solver::fill_uniform(x);
      solver::JacobiOptions jo;
      jo.eps = sc.jacobi_eps;
      jo.stagnation_eps = sc.jacobi_stagnation_eps;
      jo.max_iterations = sc.jacobi_max_iterations;
      jo.damping = sc.jacobi_damping;
      (void)solver::jacobi_solve(op, a->inf_norm(), std::span<real_t>(x), jo);
    }
  }
  const auto ms = [](const std::string& span) {
    return 1e3 * median(Tracer::instance().durations(span));
  };
  report.metric("serve.miss.build_ms", ms("core.build_network"));
  report.metric("serve.miss.enumerate_ms", ms("core.enumerate"));
  report.metric("serve.miss.assemble_ms", ms("core.rate_matrix"));
  report.metric("serve.miss.jacobi_ms", ms("solver.jacobi_solve"));
}

}  // namespace perfbench
