#include "harness.hpp"

#include <dirent.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <thread>

namespace perfbench {

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + key);
    const std::string val = argv[++i];
    if (key == "--workload") {
      a.workload = val;
    } else if (key == "--seed") {
      a.seed = std::stoull(val);
    } else if (key == "--seconds") {
      a.seconds = std::stod(val);
      if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
    } else if (key == "--trace") {
      if (val != "0" && val != "1") throw std::invalid_argument("--trace is 0 or 1");
      a.trace = val == "1";
    } else {
      throw std::invalid_argument("unknown argument " + key);
    }
  }
  if (a.workload.empty()) throw std::invalid_argument("--workload is required");
  return a;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q / 100.0 * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

namespace {
/// How long CpuRotation keeps the process on one CPU: short against a
/// run, long against the cache refill a move costs.
constexpr std::chrono::milliseconds kRotationPeriod{25};

/// Sets the affinity of every thread of the process; false when the
/// threads cannot be listed.
bool set_process_affinity(const cpu_set_t& set) {
  DIR* dir = opendir("/proc/self/task");
  if (dir == nullptr) return false;
  while (const dirent* e = readdir(dir)) {
    if (e->d_name[0] == '.') continue;
    // A thread may exit between the listing and the call; ignore that.
    (void)sched_setaffinity(static_cast<pid_t>(std::atoi(e->d_name)), sizeof(set), &set);
  }
  closedir(dir);
  return true;
}
}  // namespace

CpuRotation::CpuRotation() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &saved_)) cpus_.push_back(c);
  }
  const auto pin = [this](std::size_t k) {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[k % cpus_.size()], &one);
    return set_process_affinity(one);
  };
  if (!pin(0)) throw std::runtime_error("cannot list /proc/self/task");
  mover_ = std::thread([this, pin] {
    std::unique_lock<std::mutex> lk(m_);
    for (std::size_t k = 1; !cv_.wait_for(lk, kRotationPeriod, [this] { return stop_; }); ++k) {
      if (!pin(k)) {
        std::fprintf(stderr, "cme_perfbench: cannot list /proc/self/task; CPU rotation stopped\n");
        return;
      }
    }
  });
}

CpuRotation::~CpuRotation() {
  {
    const std::lock_guard<std::mutex> lk(m_);
    stop_ = true;
  }
  cv_.notify_all();
  mover_.join();
  set_process_affinity(saved_);
}

std::size_t llc_bytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE,
                         _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return static_cast<std::size_t>(v);
  }
  return 0;
}

StreamResult stream_triad() {
  StreamResult r;
  r.llc_bytes = llc_bytes();
  // At least 4x the last-level cache per array, and never below 64 MiB.
  const std::size_t bytes =
      std::max<std::size_t>(4 * r.llc_bytes, std::size_t{64} << 20);
  const std::size_t n = bytes / sizeof(double);
  r.array_bytes = n * sizeof(double);
  const std::unique_ptr<double[]> a(new double[n]);
  const std::unique_ptr<double[]> b(new double[n]);
  const std::unique_ptr<double[]> c(new double[n]);
  const int nt = nproc();
  const auto parallel = [&](auto&& body) {
    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(nt));
    for (int t = 0; t < nt; ++t) {
      const std::size_t lo = n * static_cast<std::size_t>(t) / static_cast<std::size_t>(nt);
      const std::size_t hi = n * static_cast<std::size_t>(t + 1) / static_cast<std::size_t>(nt);
      threads.emplace_back([&body, lo, hi] { body(lo, hi); });
    }
    for (auto& th : threads) th.join();
  };
  // First touch on the threads that later stream each block.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  const double s = 3.0;
  for (int rep = 0; rep < 4; ++rep) {
    const auto t0 = Clock::now();
    parallel([&](std::size_t lo, std::size_t hi) {
      double* pa = a.get();
      const double* pb = b.get();
      const double* pc = c.get();
      for (std::size_t i = lo; i < hi; ++i) pa[i] = pb[i] + s * pc[i];
    });
    const double sec = seconds_since(t0);
    r.gbps = std::max(r.gbps, 3.0 * static_cast<double>(r.array_bytes) / sec / 1e9);
  }
  if (a[n / 2] != 7.0) throw std::runtime_error("stream triad: wrong result");
  return r;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> w = {
      {"landscape",
       "the paper's headline: one matrix-free toggle-switch landscape to 1e-8; "
       "CPU time goes to DFS enumeration and the multi-threaded single-lane sweep"},
      {"sweep",
       "K rate points of damped phage lambda through the batched ensemble "
       "solver: K-lane operator, continuation, GMRES fallback, no enumeration"},
      {"serve",
       "Zipf traffic in wire form through the serve controller, closed loop with "
       "one request in flight, 80% cache hits; the only user of verify, serve and CSR"},
      {"transient",
       "transient FSP of the toggle switch over a 16-point grid: the only "
       "workload in FSP expansion rounds and the uniformization engine"},
  };
  return w;
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> m = {
      {"setup_s", "s", "", "", "", "lower", 0.25},
      {"solve_s", "s", "", "", "", "lower", 0.25},
      {"p50_ms", "ms", "", "", "", "lower", 0.25},
      {"p99_ms", "ms", "", "", "", "lower", 0.25},
      {"capacity_rps", "req/s", "", "", "", "higher", 0.25},
      {"peak_rss_mb", "MB", "", "", "", "lower", 0.2},
  };
  return m;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> m = {
      {"core.enumerate_s", "s", "core", "landscape", "setup_s", "lower", 0},
      {"core.states", "count", "core", "landscape", "setup_s", "lower", 0},
      {"core.stencil_compile_s", "s", "core", "landscape,sweep", "setup_s", "lower", 0},
      {"solver.iterations", "count", "solver", "landscape", "solve_s", "lower", 0},
      {"solver.sweep_ms", "ms", "solver", "landscape", "solve_s", "lower", 0},
      {"solver.spmv_ms", "ms", "solver", "landscape", "solve_s", "lower", 0},
      {"solver.gbps_computed", "GB/s", "solver", "landscape", "solve_s", "higher", 0},
      {"solver.bw_frac", "ratio", "solver", "landscape", "solve_s", "higher", 0},
      {"solver.cpu_util", "ratio", "util", "landscape,sweep", "solve_s", "higher", 0},
      {"sweep.iterations_total", "count", "solver", "sweep", "solve_s", "lower", 0},
      {"sweep.gmres_points", "count", "solver", "sweep", "solve_s", "lower", 0},
      {"sweep.jacobi_converged_frac", "ratio", "solver", "sweep", "solve_s", "higher", 0},
      {"sweep.batched_spmv_ms", "ms", "solver", "sweep", "solve_s", "lower", 0},
      {"fsp.rounds", "count", "fsp", "transient", "solve_s", "lower", 0},
      {"fsp.states_final", "count", "fsp", "transient", "solve_s", "lower", 0},
      {"fsp.matvecs_total", "count", "fsp", "transient", "solve_s", "lower", 0},
      {"fsp.matvecs_wasted_frac", "ratio", "fsp", "transient", "solve_s", "lower", 0},
      {"fsp.assemble_s", "s", "core", "transient", "solve_s", "lower", 0},
      {"transient.propagate_s", "s", "solver", "transient", "solve_s", "lower", 0},
      {"transient.matvec_us", "us", "solver", "transient", "solve_s", "lower", 0},
      {"verify.parse_us.p50", "us", "verify", "serve", "p50_ms", "lower", 0},
      {"verify.parse_us.p99", "us", "verify", "serve", "p50_ms", "lower", 0},
      {"serve.admit_us.p50", "us", "serve", "serve", "p50_ms", "lower", 0},
      {"serve.admit_us.p99", "us", "serve", "serve", "p50_ms", "lower", 0},
      {"serve.queue_ms.p50", "ms", "serve", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.queue_ms.p99", "ms", "serve", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.hit_service_ms.p50", "ms", "serve", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.hit_service_ms.p99", "ms", "serve", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.miss_service_ms.p50", "ms", "serve", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.miss_service_ms.p99", "ms", "serve", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.hit_rate", "ratio", "serve", "serve", "p99_ms,capacity_rps", "higher", 0},
      {"serve.warm_frac", "ratio", "serve", "serve", "p99_ms,capacity_rps", "higher", 0},
      {"serve.warm_iter_ratio", "ratio", "serve", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.miss.build_ms", "ms", "core", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.miss.enumerate_ms", "ms", "core", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.miss.assemble_ms", "ms", "core", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.miss.jacobi_ms", "ms", "solver", "serve", "p99_ms,capacity_rps", "lower", 0},
      {"serve.shed", "count", "serve", "serve", "failed_frac", "lower", 0},
      {"serve.failed", "count", "serve", "serve", "failed_frac", "lower", 0},
      {"serve.invalid", "count", "serve", "serve", "failed_frac", "lower", 0},
      {"serve.gen_late_ms", "ms", "harness", "serve", "failed_frac", "lower", 0},
      {"wall.solve_s", "s", "harness", "landscape,sweep,transient", "solve_s", "lower", 0},
      {"wall.open_p50_ms", "ms", "harness", "serve", "p50_ms", "lower", 0},
      {"wall.open_p99_ms", "ms", "harness", "serve", "p99_ms", "lower", 0},
      {"mem.stream_gbps", "GB/s", "harness", "all", "-", "higher", 0},
      {"trace.overhead_frac", "ratio", "harness", "all", "-", "lower", 0},
  };
  return m;
}

std::string manifest_json() {
  std::ostringstream os;
  os << "{\n  \"command\": [\"python3\", \"perfbench/run.py\"],\n"
     << "  \"paths\": [\"perfbench\"],\n"
     << "  \"run_seconds\": " << kRunSeconds << ",\n  \"workloads\": [\n";
  for (std::size_t i = 0; i < workloads().size(); ++i) {
    const auto& w = workloads()[i];
    os << "    {\"name\": \"" << w.name << "\", \"why\": \"" << w.why << "\"}"
       << (i + 1 < workloads().size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"end_to_end\": [\n";
  const auto& e2e = end_to_end_metrics();
  for (std::size_t i = 0; i < e2e.size(); ++i) {
    char bound[32];
    std::snprintf(bound, sizeof(bound), "%g", e2e[i].bound);
    os << "    {\"name\": \"" << e2e[i].name << "\", \"unit\": \"" << e2e[i].unit
       << "\", \"better\": \"" << e2e[i].better << "\", \"bound\": " << bound
       << "}" << (i + 1 < e2e.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"per_layer\": [\n";
  const auto& pl = per_layer_metrics();
  for (std::size_t i = 0; i < pl.size(); ++i) {
    os << "    {\"name\": \"" << pl[i].name << "\", \"unit\": \"" << pl[i].unit
       << "\", \"better\": \"" << pl[i].better << "\"}"
       << (i + 1 < pl.size() ? ",\n" : "\n");
  }
  os << "  ]\n}\n";
  return os.str();
}

// ---------------------------------------------------------------------------
// Report
// ---------------------------------------------------------------------------

namespace {
const MetricDef* lookup(const std::string& name) {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& d : *list) {
      if (name == d.name) return &d;
    }
  }
  return nullptr;
}
}  // namespace

void Report::metric(const std::string& name, double value) {
  if (lookup(name) == nullptr) {
    throw std::logic_error("unregistered metric " + name);
  }
  for (auto& [n, v] : values_) {
    if (n == name) {
      v = value;
      return;
    }
  }
  values_.emplace_back(name, value);
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  notes_.push_back("FAILED: " + what);
}

void Report::check_repeats(const std::string& what,
                           const std::vector<std::uint64_t>& values) {
  const bool same =
      std::all_of(values.begin(), values.end(),
                  [&](std::uint64_t v) { return v == values.front(); });
  std::string list;
  for (const auto v : values) {
    if (!list.empty()) list += ',';
    list += std::to_string(v);
  }
  check(same, what + " must repeat exactly across repetitions, got " + list);
}

void Report::note(const std::string& line) { notes_.push_back(line); }

double Report::value(const std::string& name) const {
  for (const auto& [n, v] : values_) {
    if (n == name) return v;
  }
  return 0.0;
}

int Report::finish(const std::string& workload) const {
  for (const auto& n : notes_) std::printf("%s\n", n.c_str());
  const bool have_all = [&] {
    if (trace_) return true;  // absent per-layer metrics read 0
    return std::all_of(end_to_end_metrics().begin(), end_to_end_metrics().end(),
                       [&](const MetricDef& d) {
                         return std::any_of(values_.begin(), values_.end(),
                                            [&](const auto& kv) {
                                              return kv.first == d.name;
                                            });
                       });
  }();
  if (!have_all) throw std::logic_error("an end-to-end metric was not measured");

  const auto& defs = trace_ ? per_layer_metrics() : end_to_end_metrics();
  std::printf("\n%s (%s run)\n", workload.c_str(), trace_ ? "traced" : "untraced");
  if (trace_) {
    std::printf("%-28s %16s %-6s %-8s %-16s %s\n", "metric", "value", "unit",
                "layer", "measured on", "should move");
  } else {
    std::printf("%-28s %16s %-6s\n", "metric", "value", "unit");
  }
  for (const MetricDef& d : defs) {
    if (trace_) {
      std::printf("%-28s %16.6g %-6s %-8s %-16s %s\n", d.name, value(d.name),
                  d.unit, d.layer, d.workloads, d.moves);
    } else {
      std::printf("%-28s %16.6g %-6s\n", d.name, value(d.name), d.unit);
    }
  }
  const double failed_frac =
      attempted_ ? static_cast<double>(failed_) / static_cast<double>(attempted_)
                 : 0.0;
  std::printf("%-28s %16.6g %-6s (%llu of %llu attempted)\n", "failed_frac",
              failed_frac, "ratio", static_cast<unsigned long long>(failed_),
              static_cast<unsigned long long>(attempted_));

  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_
     << ", \"failed\": " << failed_ << ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = value(defs[i].name);
    js << (i ? ", " : "") << "\"" << defs[i].name << "\": {\"value\": "
       << (std::isfinite(v) ? v : std::numeric_limits<double>::max()) << ", \"unit\": \"" << defs[i].unit
       << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  std::fflush(stdout);
  return correct() ? 0 : 1;
}

}  // namespace perfbench
