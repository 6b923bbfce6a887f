// camelot_bench: one camelot-e2e workload per process.
//
//   camelot_bench --workload NAME --seed S --seconds T [--trace]
//                 --json OUT
//
// Writes the run (host stamp, counts, every metric with its unit and
// sample count) to OUT. A traced run also writes its spans as Chrome
// trace-event JSON next to it: OUT with .json replaced by .chrome.json.
// Exits 1 when an answer was wrong or the run is invalid, 2 on bad
// arguments. bench/e2e/run.py builds and drives it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "record.hpp"
#include "workloads.hpp"

namespace {

int usage(const std::string& why) {
  std::fprintf(stderr, "camelot_bench: %s\n", why.c_str());
  std::fprintf(stderr, "usage: camelot_bench --workload NAME --seed S ");
  std::fprintf(stderr, "--seconds T [--trace] --json OUT\n");
  std::fprintf(stderr, "workloads:");
  for (const std::string& w : camelot::e2e::workload_names()) {
    std::fprintf(stderr, " %s", w.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace camelot::e2e;
  Options opt;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--json" && has_value) {
      json_path = argv[++i];
    } else {
      return usage("bad argument " + arg);
    }
  }
  const std::vector<std::string>& names = workload_names();
  if (std::find(names.begin(), names.end(), opt.workload) == names.end()) {
    return usage("unknown workload '" + opt.workload + "'");
  }
  if (json_path.empty()) return usage("--json is required");
  if (!(opt.seconds > 0.0 && opt.seconds <= 600.0)) {
    return usage("--seconds is required, in (0, 600]");
  }

  SpanRecorder rec;
  RunResult result;
  try {
    result = run_workload(opt, rec);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "camelot_bench: %s failed: %s\n",
                 opt.workload.c_str(), e.what());
    return 1;
  }

  std::ofstream out(json_path);
  out << render_json(result);
  if (!out) {
    std::fprintf(stderr, "camelot_bench: cannot write %s\n", json_path.c_str());
    return 1;
  }
  if (opt.trace) {
    const std::string suffix = ".json";
    std::string chrome = json_path;
    if (chrome.ends_with(suffix)) chrome.resize(chrome.size() - suffix.size());
    chrome += ".chrome.json";
    if (!rec.write_chrome(chrome)) {
      std::fprintf(stderr, "camelot_bench: cannot write %s\n", chrome.c_str());
      return 1;
    }
  }
  if (result.failed != 0) {
    std::fprintf(stderr, "camelot_bench: %zu of %zu operations failed\n",
                 result.failed, result.attempted);
    return 1;
  }
  if (!result.valid) {
    std::fprintf(stderr, "camelot_bench: invalid run: %s\n",
                 result.invalid_reason.c_str());
    return 1;
  }
  return 0;
}
