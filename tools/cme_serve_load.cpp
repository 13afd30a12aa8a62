//
// cme_serve_load: closed-loop load generator for the solver daemon.
//
// Spins up an in-process serve::Controller, drives it with a Zipf-popular
// parameter-sweep workload over the built-in families (toggle switch and
// phage lambda), and prints a latency/throughput/cache summary. The same
// numbers are published into the obs registry, so CMESOLVE_REPORT /
// CMESOLVE_BENCH capture them for the schema oracle and the regression
// ledger.
//
// Usage:
//   cme_serve_load [--requests N] [--clients N] [--workers N]
//                  [--variants N] [--zipf S] [--think SECONDS]
//                  [--jitter J] [--seed N] [--queue-cap N] [--cache-cap N]
//                  [--deterministic] [--min-hit-rate R]
//
// --deterministic pins clients=1, workers=1, think=0: the run is a
// sequential replay and every published count is bit-stable (the bench
// ledger's serve_load.tiny baseline records this mode).
//
// --min-hit-rate turns the run into a gate: exit 1 when the cache hit rate
// falls below R (CI's serve smoke). Every cache miss is a cold solve from
// the uniform vector; the report counts them and their Jacobi iterations.
//
// Exit codes: 0 ok, 1 gate violation, 2 usage error.
//
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "obs/report.hpp"
#include "serve/controller.hpp"
#include "serve/workload.hpp"
#include "util/parse.hpp"
#include "util/simd.hpp"
#include "util/table.hpp"

namespace {

using namespace cmesolve;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--requests N] [--clients N] [--workers N]\n"
               "          [--variants N] [--zipf S] [--think SECONDS]\n"
               "          [--jitter J] [--seed N] [--queue-cap N]\n"
               "          [--cache-cap N] [--deterministic]\n"
               "          [--min-hit-rate R]\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  serve::ServeOptions sopt = serve::serve_options_from_env();
  serve::LoadOptions lopt;
  std::size_t nvariants = 24;
  double jitter = 0.15;
  bool deterministic = false;
  double min_hit_rate = -1.0;

  constexpr auto kMaxInt =
      static_cast<std::uint64_t>(std::numeric_limits<int>::max());
  constexpr auto kMaxSize =
      static_cast<std::uint64_t>(std::numeric_limits<std::size_t>::max());
  constexpr auto kMaxU64 = std::numeric_limits<std::uint64_t>::max();
  constexpr double kHuge = std::numeric_limits<double>::max();
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // Every numeric flag must be one whole number in range; anything else
    // is a usage error, never a silent 0.
    const auto count = [&](std::uint64_t min, std::uint64_t max) {
      const char* v = next();
      const auto n = util::parse_count(v, min, max);
      if (!n) {
        std::fprintf(stderr, "%s: %s wants a whole number in [%llu, %llu], "
                     "got \"%s\"\n", argv[0], a,
                     static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), v);
        usage(argv[0]);
      }
      return *n;
    };
    const auto real = [&](double min, double max) {
      const char* v = next();
      const auto x = util::parse_real(v, min, max);
      if (!x) {
        std::fprintf(stderr, "%s: %s wants a number in [%g, %g], got \"%s\"\n",
                     argv[0], a, min, max, v);
        usage(argv[0]);
      }
      return *x;
    };
    if (std::strcmp(a, "--requests") == 0) {
      lopt.requests = static_cast<std::size_t>(count(1, kMaxSize));
    } else if (std::strcmp(a, "--clients") == 0) {
      lopt.clients = static_cast<int>(count(1, kMaxInt));
    } else if (std::strcmp(a, "--workers") == 0) {
      sopt.workers = static_cast<int>(count(1, kMaxInt));
    } else if (std::strcmp(a, "--variants") == 0) {
      nvariants = static_cast<std::size_t>(count(1, kMaxSize));
    } else if (std::strcmp(a, "--zipf") == 0) {
      lopt.zipf_s = real(0.0, kHuge);
    } else if (std::strcmp(a, "--think") == 0) {
      lopt.think_seconds = real(0.0, kHuge);
    } else if (std::strcmp(a, "--jitter") == 0) {
      jitter = real(0.0, kHuge);
    } else if (std::strcmp(a, "--seed") == 0) {
      lopt.seed = count(0, kMaxU64);
    } else if (std::strcmp(a, "--queue-cap") == 0) {
      sopt.queue_capacity = static_cast<std::size_t>(count(0, kMaxSize));
    } else if (std::strcmp(a, "--cache-cap") == 0) {
      sopt.cache_capacity = static_cast<std::size_t>(count(0, kMaxSize));
    } else if (std::strcmp(a, "--deterministic") == 0) {
      deterministic = true;
    } else if (std::strcmp(a, "--min-hit-rate") == 0) {
      min_hit_rate = real(0.0, 1.0);
    } else {
      usage(argv[0]);
    }
  }
  if (deterministic) {
    lopt.clients = 1;
    sopt.workers = 1;
    lopt.think_seconds = 0.0;
  }

  obs::set_context("program", "cme_serve_load");
  obs::set_context("serve.workers", std::to_string(sopt.workers));
  obs::set_context("serve.clients", std::to_string(lopt.clients));
  obs::set_context("serve.requests", std::to_string(lopt.requests));
  obs::set_context("serve.variants", std::to_string(nvariants));
  obs::set_context("serve.deterministic", deterministic ? "1" : "0");

  const std::vector<serve::SweepFamily> fams =
      serve::builtin_families(nvariants, jitter, lopt.seed);

  serve::LoadReport rep;
  serve::ServeStats stats;
  {
    serve::Controller ctl(sopt);
    rep = serve::run_closed_loop(ctl, fams, lopt);
    ctl.shutdown();
    stats = ctl.stats();
  }
  serve::publish_load_report(rep, deterministic);

  TextTable t({"metric", "value"});
  t.add_row({"requests", TextTable::count(static_cast<long long>(rep.requests))});
  t.add_row({"ok", TextTable::count(static_cast<long long>(rep.ok))});
  t.add_row({"shed", TextTable::count(static_cast<long long>(rep.shed))});
  t.add_row({"failed", TextTable::count(static_cast<long long>(rep.failed))});
  t.add_row({"invalid", TextTable::count(static_cast<long long>(rep.invalid))});
  t.add_row({"cache hits", TextTable::count(static_cast<long long>(rep.cache_hits))});
  t.add_row({"hit rate", TextTable::num(rep.hit_rate, 3)});
  t.add_row({"cold solves", TextTable::count(static_cast<long long>(rep.cold_solves))});
  t.add_row({"cold mean iters", TextTable::num(rep.cold_mean_iters, 1)});
  t.add_row({"p50 latency (ms)", TextTable::num(rep.p50_ms, 3)});
  t.add_row({"p99 latency (ms)", TextTable::num(rep.p99_ms, 3)});
  t.add_row({"throughput (req/s)", TextTable::num(rep.throughput_rps, 1)});
  t.add_row({"wall (s)", TextTable::num(rep.wall_seconds, 3)});
  t.add_row({"cache entries", TextTable::count(static_cast<long long>(stats.cache.entries))});
  t.add_row({"cache evictions", TextTable::count(static_cast<long long>(stats.cache.evictions))});
  t.add_row({"queue evictions", TextTable::count(static_cast<long long>(stats.queue_evicted))});
  t.add_row({"simd isa", util::simd::active_isa_name()});
  std::fputs(t.render().c_str(), stdout);

  obs::flush_outputs();

  if (min_hit_rate >= 0.0 && rep.hit_rate < min_hit_rate) {
    std::fprintf(stderr, "GATE: hit rate %.3f below minimum %.3f\n",
                 rep.hit_rate, min_hit_rate);
    return 1;
  }
  return 0;
}
