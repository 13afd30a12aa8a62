#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace perfbench {
namespace {

thread_local std::vector<int> open_spans;

std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine = next.fetch_add(1);
  return mine;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

}  // namespace

Tracer& Tracer::instance() {
  static Tracer t;
  return t;
}

int Tracer::begin(const std::string& name, std::uint64_t request) {
  if (!enabled_) return -1;
  const int parent = open_spans.empty() ? -1 : open_spans.back();
  const auto now = Clock::now();
  int id = 0;
  {
    const std::lock_guard<std::mutex> lock(m_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now, now, parent, request, thread_number()});
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const auto now = Clock::now();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  const std::lock_guard<std::mutex> lock(m_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

int Tracer::record(const std::string& name, Clock::time_point start,
                   Clock::time_point end, int parent, std::uint64_t request) {
  if (!enabled_) return -1;
  const std::lock_guard<std::mutex> lock(m_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(Span{name, start, end, parent, request, thread_number()});
  return id;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  const std::lock_guard<std::mutex> lock(m_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(seconds_between(s.start, s.end));
  }
  return out;
}

std::vector<double> Tracer::self_seconds() const {
  // Caller holds m_. Children's intervals are clipped to the parent and
  // merged, so overlapping children (concurrent requests) count once.
  std::vector<std::vector<std::pair<Clock::time_point, Clock::time_point>>>
      kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    Clock::time_point run_a{};
    Clock::time_point run_b{};
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (open && a <= run_b) {
        run_b = std::max(run_b, b);
      } else {
        if (open) covered += seconds_between(run_a, run_b);
        run_a = a;
        run_b = b;
        open = true;
      }
    }
    if (open) covered += seconds_between(run_a, run_b);
    self[i] = seconds_between(s.start, s.end) - covered;
  }
  return self;
}

std::string Tracer::summary() const {
  const std::lock_guard<std::mutex> lock(m_);
  const std::vector<double> self = self_seconds();
  struct Row {
    std::size_t count = 0;
    double total = 0.0;
    double self = 0.0;
  };
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    Row& r = rows[spans_[i].name];
    ++r.count;
    r.total += seconds_between(spans_[i].start, spans_[i].end);
    r.self += self[i];
  }
  std::ostringstream os;
  char line[256];
  std::snprintf(line, sizeof(line), "%-34s %8s %12s %12s\n", "span", "count",
                "total_ms", "self_ms");
  os << line;
  for (const auto& [name, r] : rows) {
    std::snprintf(line, sizeof(line), "%-34s %8zu %12.3f %12.3f\n",
                  name.c_str(), r.count, r.total * 1e3, r.self * 1e3);
    os << line;
  }
  return os.str();
}

bool Tracer::write_chrome(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(m_);
  const std::vector<double> self = self_seconds();
  std::error_code ec;
  const auto dir = std::filesystem::path(path).parent_path();
  if (!dir.empty()) std::filesystem::create_directories(dir, ec);
  std::ofstream os(path);
  if (!os) return false;
  Clock::time_point t0 = spans_.empty() ? Clock::time_point{} : spans_[0].start;
  for (const Span& s : spans_) t0 = std::min(t0, s.start);
  const auto us = [t0](Clock::time_point t) {
    return std::chrono::duration<double, std::micro>(t - t0).count();
  };
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.tid, us(s.start), us(s.end) - us(s.start));
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
       << "\"," << buf << ",\"args\":{\"id\":" << i
       << ",\"parent\":" << s.parent << ",\"request\":" << s.request
       << ",\"self_us\":" << self[i] * 1e6 << "}}";
  }
  os << "\n]}\n";
  return static_cast<bool>(os);
}

}  // namespace perfbench
