// Repository benchmark program: runs one workload from a seed and prints
// its end-to-end metrics (untraced run) or per-layer metrics (traced run),
// ending with one JSON line. perfbench/run.py builds and invokes it.
//
//   cme_perfbench --workload landscape --seed 1 --seconds 8 --trace 0
//   cme_perfbench --manifest          # prints BENCHMARK.json
#include <cstdio>
#include <exception>
#include <string>

#include "harness.hpp"
#include "spans.hpp"
#include "workloads.hpp"

using namespace perfbench;

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--manifest") {
    std::printf("%s", manifest_json().c_str());
    return 0;
  }
  try {
    const Args args = parse_args(argc, argv);
    Report report(args.trace);
    Tracer::instance().enable(args.trace);
    if (args.workload == "landscape") {
      run_landscape(args, report);
    } else if (args.workload == "sweep") {
      run_sweep(args, report);
    } else if (args.workload == "serve") {
      run_serve(args, report);
    } else if (args.workload == "transient") {
      run_transient(args, report);
    } else {
      throw std::invalid_argument("unknown workload " + args.workload);
    }
    if (args.trace) {
      Tracer::instance().enable(false);
      const StreamResult st = stream_triad();
      report.metric("mem.stream_gbps", st.gbps);
      report.note("STREAM triad: 3 arrays of " +
                  std::to_string(st.array_bytes >> 20) + " MiB each, LLC " +
                  std::to_string(st.llc_bytes >> 20) + " MiB, " +
                  fmt(st.gbps) + " GB/s (bytes computed from array sizes)");
      if (report.value("solver.gbps_computed") > 0.0) {
        report.metric("solver.bw_frac",
                      report.value("solver.gbps_computed") / st.gbps);
      }
      // Relative to the working directory, which run.py sets to the
      // repository root.
      const std::string path = ".bench_build/traces/" + args.workload + "-seed" +
                               std::to_string(args.seed) + ".json";
      if (!Tracer::instance().write_chrome(path)) {
        throw std::runtime_error("cannot write " + path);
      }
      std::printf("%s", Tracer::instance().summary().c_str());
      std::printf("Chrome trace: %s\n", path.c_str());
    }
    return report.finish(args.workload);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cme_perfbench: %s\n", e.what());
    return 2;
  }
}
