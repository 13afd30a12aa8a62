#pragma once
//
// The benchmark's workloads. Each builds its inputs from the seed, times
// only calls into the library's public functions, checks every output,
// and records its metrics into the Report.
//
#include "harness.hpp"

namespace perfbench {

void run_landscape(const Args& args, Report& report);
void run_sweep(const Args& args, Report& report);
void run_serve(const Args& args, Report& report);
void run_transient(const Args& args, Report& report);

}  // namespace perfbench
