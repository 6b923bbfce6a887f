// Measurement plumbing for camelot_bench: the steady clock, exact
// quantiles over raw client-side samples, the outside-in span
// recorder (Chrome trace-event export), the heap-allocation counter,
// the host stamp and the per-run result written as JSON.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "field/field_ops.hpp"

namespace camelot::e2e {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0);

// num / den, or 0 when den is not positive.
inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

// A latency quantile is emitted only when at least this many samples
// lie beyond it (on the slow side), so a number always rests on data.
inline constexpr std::size_t kMinBeyond = 10;

// Exact quantile of raw samples: linear interpolation between order
// statistics (numpy's default). nullopt when fewer than `min_beyond`
// samples lie above rank ceil(q * n).
std::optional<double> quantile(std::vector<double> samples, double q,
                               std::size_t min_beyond = kMinBeyond);

// Plain median of any number of samples, for set-up repetitions and
// per-stage timings, which are not latency distributions.
double median(std::vector<double> samples);

// Heap allocations through the replaced operator new, counted only
// while counting is on (one relaxed load per allocation otherwise).
void set_alloc_counting(bool on);
std::uint64_t allocs_counted();

// Spans recorded from the benchmark's own code around calls into each
// layer: name, start, end, parent and job id. Held in memory and
// written as Chrome trace-event JSON when the run ends. Single
// threaded: every span of a run is opened on the main thread.
class SpanRecorder {
 public:
  SpanRecorder();

  // Opens a span under the innermost open one; returns its index.
  int open(std::string name, std::uint64_t job);
  void close(int index);

  // Sum of the self times (duration minus the part that child spans
  // cover) of every descendant of `root`, over the root's duration: the
  // share of the job that named layer spans account for. Requires
  // `root` to be closed.
  double attributed_share(int root) const;

  bool write_chrome(const std::string& path) const;

 private:
  double duration(int index) const;

  struct Record {
    std::string name;
    // Seconds since the recorder was created.
    double start_s = 0.0;
    double end_s = 0.0;
    // Index of the enclosing span, -1 for a root.
    int parent = -1;
    std::uint64_t job = 0;
  };

  Clock::time_point t0_;
  std::vector<Record> records_;
  std::vector<int> open_;
};

// RAII span; a null recorder makes it free (untraced runs).
class Span {
 public:
  Span(SpanRecorder* rec, std::string name, std::uint64_t job);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int index() const noexcept { return index_; }

 private:
  SpanRecorder* rec_;
  int index_ = -1;
};

// One metric as the run JSON carries it. `samples` is the count the
// value was computed from (quantiles and means); `applies` is false
// for a layer the workload does not use, whose value is then 0.
struct Metric {
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
  bool applies = true;
};

// Display name of a resolved field backend.
std::string backend_name(FieldBackend b);

struct RunResult {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  // FieldOps::backend() of the workload's sessions, as resolved.
  std::string backend;
  double run_seconds = 0.0;
  std::size_t setup_repetitions = 0;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  // False when the run cannot stand as a measurement (e.g. the
  // open-loop generator fell behind); camelot_bench then exits 1.
  bool valid = true;
  std::string invalid_reason;
  std::map<std::string, Metric> metrics;
  // The raw client-side job latencies the job_s_* quantiles came from,
  // in completion order.
  std::vector<double> latency_samples;

  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 0, bool applies = true);
  // Records one checked operation.
  void count(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

// Host, build and run stamp plus every metric, as one JSON object.
std::string render_json(const RunResult& r);

// Peak resident set of this process (and, with children = true, the
// larger of it and its largest waited-for child), in MiB.
double peak_rss_mb(bool children);

}  // namespace camelot::e2e
