// The four camelot-e2e workloads. Each one builds its inputs from the
// seed, computes brute-force reference answers before any timer
// starts, sets up cold several times (setup_s is the median), then
// measures for the run length and checks every answer. A traced run
// spends the first half of its length on untraced jobs (the reference
// for trace.overhead and the service and fleet layer counters) and
// the second half on jobs decomposed layer by layer (layers.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "record.hpp"

namespace camelot::e2e {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  // Run length; camelot_bench requires it (BENCHMARK.json's
  // run_seconds, passed by run.py).
  double seconds = 0.0;
  bool trace = false;
};

const std::vector<std::string>& workload_names();

// Runs one workload; spans land in `rec` on traced runs.
RunResult run_workload(const Options& opt, SpanRecorder& rec);

}  // namespace camelot::e2e
