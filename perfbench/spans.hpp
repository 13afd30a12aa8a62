#pragma once
//
// In-memory span recorder for the traced run. Spans are recorded from the
// benchmark's own code around each call into a library module, kept in
// memory, and written as Chrome trace JSON when the run ends. A span's
// self time is its duration minus the part of it covered by its children.
//
// Disabled (the untraced runs that produce every end-to-end number), every
// entry point returns immediately and nothing is stored.
//
#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

struct Span {
  std::string name;
  Clock::time_point start;
  Clock::time_point end;
  int parent = -1;            ///< index of the enclosing span, -1 for a root
  std::uint64_t request = 0;  ///< request id (serve), 0 elsewhere
  std::uint32_t tid = 0;      ///< small per-thread number
};

class Tracer {
 public:
  static Tracer& instance();

  void enable(bool on) noexcept { enabled_ = on; }
  [[nodiscard]] bool enabled() const noexcept { return enabled_; }

  /// Open a span on the calling thread; its parent is the innermost span
  /// the thread has open. Returns -1 when disabled.
  int begin(const std::string& name, std::uint64_t request = 0);
  void end(int id);
  /// Record a finished span with explicit times (intervals the program
  /// reports, such as a request's queue wait). Returns -1 when disabled.
  int record(const std::string& name, Clock::time_point start,
             Clock::time_point end, int parent, std::uint64_t request);

  /// Durations in seconds of every span with this name.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Per-name count, total and self time, one line per name.
  [[nodiscard]] std::string summary() const;
  /// Write the Chrome trace ("traceEvents", complete events, microseconds
  /// since the first span). Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<double> self_seconds() const;

  std::atomic<bool> enabled_{false};
  mutable std::mutex m_;
  std::vector<Span> spans_;  // guarded by m_
};

/// RAII span on the calling thread.
class ScopedSpan {
 public:
  explicit ScopedSpan(const std::string& name, std::uint64_t request = 0)
      : id_(Tracer::instance().begin(name, request)) {}
  ~ScopedSpan() { Tracer::instance().end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  int id_;
};

}  // namespace perfbench

namespace perfbench {

/// One timed piece of work: CPU seconds of the whole process (all
/// threads) and wall seconds.
struct Timing {
  double cpu = 0.0;
  double wall = 0.0;
};

/// Times `f()` in process CPU seconds and wall seconds.
template <class F>
Timing timed(F&& f) {
  const double cpu0 = process_cpu_seconds();
  const auto t0 = Clock::now();
  f();
  const double wall = seconds_since(t0);
  return {process_cpu_seconds() - cpu0, wall};
}

/// Timings of a workload's measured repetitions.
struct Reps {
  /// CPU seconds of the untraced and traced repetitions: what every
  /// end-to-end time is made of.
  std::vector<double> untraced;
  std::vector<double> traced;
  /// Wall seconds of the untraced repetitions, for the per-layer table.
  std::vector<double> untraced_wall;
  /// Peak RSS after the warm-up and the first measured repetition: a fixed
  /// amount of work, so the reading does not depend on how many
  /// repetitions fit into the run.
  double peak_rss_mb = 0.0;
};

/// Runs `rep()` (which returns the Timing of the timed work it did) back
/// to back until `seconds` of wall time have passed, at least once, after
/// one discarded warm-up repetition (thread pool start, first-touch page
/// faults). In a traced run the repetitions alternate tracing off and on,
/// at least one of each, so the traced run can state its own tracing
/// overhead.
template <class F>
Reps measure_reps(double seconds, bool trace, F&& rep) {
  Reps r;
  Tracer::instance().enable(false);
  rep();
  const auto t0 = Clock::now();
  for (std::size_t i = 0;; ++i) {
    const bool traced = trace && i % 2 == 1;
    Tracer::instance().enable(traced);
    const Timing t = rep();
    Tracer::instance().enable(trace);
    if (traced) {
      r.traced.push_back(t.cpu);
    } else {
      r.untraced.push_back(t.cpu);
      r.untraced_wall.push_back(t.wall);
    }
    if (i == 0) r.peak_rss_mb = peak_rss_mb();
    const bool enough = !trace || (!r.untraced.empty() && !r.traced.empty());
    if (enough && seconds_since(t0) >= seconds) break;
  }
  return r;
}

}  // namespace perfbench
