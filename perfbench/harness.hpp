#pragma once
//
// Shared plumbing of the benchmark program: command line, clocks, order
// statistics, process-level resource probes, the STREAM triad, and the
// result sink that prints the human table plus the final JSON line.
//
#include <sched.h>

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace perfbench {

/// Seconds one run measures: BENCHMARK.json's run_seconds and the default
/// of --seconds.
inline constexpr int kRunSeconds = 16;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = kRunSeconds;
  bool trace = false;
};

/// Parses --workload/--seed/--seconds/--trace; throws
/// std::invalid_argument on anything else.
Args parse_args(int argc, char** argv);

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// Median (mean of the two middle values for even sizes); 0 for empty.
[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 100]; 0 for empty. +inf samples sort
/// last, so failed requests count as missing any latency limit.
[[nodiscard]] double percentile(std::vector<double> v, double q);

/// Short human-readable number ("%.4g").
[[nodiscard]] std::string fmt(double v);

/// CPU seconds of the whole process (all threads).
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set of this process so far, in MB (getrusage).
[[nodiscard]] double peak_rss_mb();
/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] int nproc();

/// Runs the whole process on one CPU at a time and moves it to the next
/// CPU of its affinity set every 25 ms, for the object's lifetime; the
/// destructor restores every thread's affinity. For work where one thread
/// at a time is runnable: a virtual CPU's speed follows the load on the
/// physical core the hypervisor places it on, so serial work pinned to,
/// or left on, one CPU reads whole runs 20-30% apart, while rotating
/// averages every run over all CPUs. Keeping the process on one CPU also
/// makes a hand-off between two of its threads a context switch rather
/// than a wake-up interrupt to another virtual CPU. Threads started later
/// inherit their creator's CPU and follow from the next move.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  cpu_set_t saved_;
  std::vector<int> cpus_;
  std::mutex m_;
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by m_
  std::thread mover_;
};

/// Last-level cache size in bytes as the C library reports it (0 when
/// unknown).
[[nodiscard]] std::size_t llc_bytes();

struct StreamResult {
  std::size_t array_bytes = 0;  ///< per array
  std::size_t llc_bytes = 0;
  double gbps = 0.0;            ///< best of the repetitions, computed bytes
};
/// STREAM triad a[i] = b[i] + s*c[i] over three arrays of at least
/// 4x the last-level cache each, on nproc() threads. Bytes are computed
/// from the array sizes (3 arrays x 8 B per element per pass).
[[nodiscard]] StreamResult stream_triad();

/// Multiplicative jitter exp(u * width), u ~ U[-1, 1) from `rng`.
[[nodiscard]] inline double jitter_factor(cmesolve::Xoshiro256& rng, double width) {
  return std::exp(rng.uniform(-1.0, 1.0) * width);
}

/// One metric of the benchmark's registry. End-to-end metrics carry
/// their regression bound; per-layer metrics carry the module they observe
/// and the end-to-end metric they should move.
struct MetricDef {
  const char* name;
  const char* unit;
  const char* layer;      ///< per-layer only
  const char* workloads;  ///< where it is measured (per-layer only)
  const char* moves;      ///< per-layer only
  const char* better;     ///< end-to-end only: "lower" | "higher"
  double bound;           ///< end-to-end only
};

struct WorkloadDef {
  const char* name;
  const char* why;
};

[[nodiscard]] const std::vector<MetricDef>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricDef>& per_layer_metrics();
[[nodiscard]] const std::vector<WorkloadDef>& workloads();
/// BENCHMARK.json text generated from the registry above.
[[nodiscard]] std::string manifest_json();

/// Collects metrics, operation counts and check outcomes of one run.
class Report {
 public:
  explicit Report(bool trace) : trace_(trace) {}

  /// Record a registered metric (throws std::logic_error on an unknown
  /// name). Per-layer metrics not recorded by a workload print as 0: the
  /// layer did no work of that kind in it.
  void metric(const std::string& name, double value);
  /// One attempted operation or output check. A failure is printed,
  /// counts as failed, and makes the run exit non-zero.
  void check(bool ok, const std::string& what);
  /// Exact-repeat check on a count that must not vary across repetitions.
  void check_repeats(const std::string& what,
                     const std::vector<std::uint64_t>& values);
  /// Free-form line for the human-readable part of the output.
  void note(const std::string& line);

  /// Recorded value, 0 when not recorded.
  [[nodiscard]] double value(const std::string& name) const;
  [[nodiscard]] bool trace() const noexcept { return trace_; }
  [[nodiscard]] bool correct() const noexcept { return failed_ == 0; }

  /// Prints the notes and the metric table, then the final JSON line:
  /// every end-to-end metric (untraced run) or every per-layer metric
  /// (traced run). Returns the process exit code.
  [[nodiscard]] int finish(const std::string& workload) const;

 private:
  bool trace_;
  std::vector<std::pair<std::string, double>> values_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

}  // namespace perfbench
