// Service-level benchmark: the serving-layer numbers that the field
// microbenches (bench_field) cannot see, emitted as
// BENCH_service.json for the CI regression gate.
//
//   * pipeline_multi_prime — one multi-prime job, barrier staging vs
//     the overlapped streaming pipeline (the tentpole win: decode of
//     prime p runs while prime p+1 still prepares);
//   * service_throughput  — jobs/sec through a ProofService worker
//     pool with shared plan/field/code caches;
//   * service_latency     — p50/p95 submit -> verified-report latency
//     under a concurrent batch;
//   * overload            — bounded-queue behaviour under a burst
//     (counts only; the bench *fails* if rejection stops working or
//     an accepted job fails, so CI enforces the behaviour);
//   * calibration         — a frozen division-reduction loop
//     (independent of the library) whose drift measures the runner,
//     used by check_bench.py --calibrate to normalize machine speed.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "apps/ov.hpp"
#include "bench_util.hpp"
#include "core/proof_service.hpp"
#include "core/proof_session.hpp"
#include "core/symbol_stream.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"

namespace camelot {
namespace {

volatile u64 g_sink;  // defeats dead-code elimination

double g_min_seconds = 0.5;

// Minimum ns/op over however many samples fit the time budget — the
// same estimator bench_field uses (robust against CI noise, which is
// one-sided: interference only ever makes samples slower).
template <typename Fn>
double ns_per_op(Fn&& fn, double min_seconds = g_min_seconds) {
  double best = std::numeric_limits<double>::infinity();
  double elapsed_total = 0.0;
  do {
    benchutil::Timer t;
    const double units = fn();
    const double elapsed = t.seconds();
    best = std::min(best, elapsed * 1e9 / units);
    elapsed_total += elapsed;
  } while (elapsed_total < min_seconds);
  return best;
}

// The frozen seed-era reduction loop from bench_field: hardware
// division of every 128-bit product. Library-independent on purpose.
u64 ref_mul(u64 a, u64 b, u64 q) {
  return static_cast<u64>(static_cast<u128>(a) * b % q);
}

struct Metric {
  std::string key;
  double value;
};
struct Entry {
  std::string name;
  std::vector<Metric> metrics;
};

std::shared_ptr<const CamelotProblem> service_problem(u64 seed) {
  // Orthogonal vectors at a size where a job spans several CRT primes
  // and the Gao decode is a comparable share of the pipeline to the
  // prepare stage — the regime where overlap pays.
  return std::make_shared<OrthogonalVectorsProblem>(
      BoolMatrix::random(48, 24, 0.35, 11 + seed),
      BoolMatrix::random(48, 24, 0.35, 22 + seed));
}

ClusterConfig bench_config() {
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.redundancy = 2.0;
  cfg.num_primes = 4;  // multi-prime: the overlap axis
  return cfg;
}

}  // namespace
}  // namespace camelot

int main(int argc, char** argv) {
  using namespace camelot;
  std::string out_path = "BENCH_service.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      g_min_seconds = 0.1;  // CI smoke mode
    } else {
      out_path = arg;
    }
  }

  std::vector<Entry> entries;
  bool behaviour_ok = true;
  // Prometheus text snapshot of the throughput/latency service's
  // registry, rendered while that service is alive and written next to
  // the JSON (CI uploads it alongside BENCH_service.json).
  std::string prom_snapshot;

  // --- calibration (machine-speed reference, frozen) ----------------------
  {
    const u64 q = 1099511627791ull;  // fixed prime; value is irrelevant
    std::vector<u64> a(1 << 14), b(1 << 14);
    u64 x = 0x9E3779B97F4A7C15ull;
    for (auto& v : a) v = (x ^= x << 13, x ^= x >> 7, x ^= x << 17) % q;
    for (auto& v : b) v = (x ^= x << 13, x ^= x >> 7, x ^= x << 17) % q;
    const double ns = ns_per_op([&] {
      u64 acc = 0;
      for (std::size_t i = 0; i < a.size(); ++i) acc ^= ref_mul(a[i], b[i], q);
      g_sink = acc;
      return static_cast<double>(a.size());
    });
    entries.push_back({"calibration", {{"division_ns_per_op", ns}}});
  }

  // --- barrier vs streaming pipeline, one multi-prime job -----------------
  {
    auto problem = service_problem(0);
    ClusterConfig cfg = bench_config();
    cfg.num_threads = 4;
    // Warm the global field cache so both sides measure the pipeline,
    // not first-touch table builds.
    { ProofSession warm(*problem, cfg); warm.run(); }
    const double barrier = ns_per_op([&] {
      ProofSession s(*problem, cfg);
      const RunReport r =
          s.prepare().transport().decode().verify().recover().report();
      g_sink = r.success ? 1 : 0;
      return 1.0;
    });
    const double streaming = ns_per_op([&] {
      ProofSession s(*problem, cfg);
      g_sink = s.run_streaming(LosslessStreamingChannel()).success ? 1 : 0;
      return 1.0;
    });
    entries.push_back({"pipeline_multi_prime",
                       {{"barrier_ns_per_op", barrier},
                        {"streaming_ns_per_op", streaming},
                        {"speedup", barrier / streaming}}});
  }

  // --- service throughput (jobs/sec over the worker pool) -----------------
  {
    constexpr std::size_t kJobs = 8;
    std::vector<std::shared_ptr<const CamelotProblem>> problems;
    for (std::size_t i = 0; i < kJobs; ++i) {
      problems.push_back(service_problem(i));
    }
    const ClusterConfig cfg = bench_config();
    ProofService service({.num_workers = 4});
    // Warm plan/field/code caches (spec-identical batch).
    if (!service.submit(problems[0], cfg).get().success) behaviour_ok = false;
    const double ns_per_job = ns_per_op([&] {
      std::vector<std::future<RunReport>> futures;
      futures.reserve(kJobs);
      for (const auto& p : problems) futures.push_back(service.submit(p, cfg));
      for (auto& f : futures) {
        if (!f.get().success) behaviour_ok = false;
      }
      return static_cast<double>(kJobs);
    });
    entries.push_back(
        {"service_throughput", {{"jobs_per_sec", 1e9 / ns_per_job}}});

    // --- latency under the same concurrent batch --------------------------
    // Measured by the service's own camelot_job_latency_seconds
    // histogram: snapshot before the batch, window the batch out with
    // delta_since, read bucket-interpolated quantiles — the same
    // numbers a Prometheus scrape of a production service shows.
    obs::Histogram& latency_hist =
        service.metrics()->histogram("camelot_job_latency_seconds");
    const obs::Histogram::Snapshot before = latency_hist.snapshot();
    std::vector<std::future<RunReport>> futures;
    futures.reserve(kJobs);
    for (std::size_t i = 0; i < kJobs; ++i) {
      futures.push_back(service.submit(problems[i], cfg));
    }
    for (auto& f : futures) {
      if (!f.get().success) behaviour_ok = false;
    }
    const obs::Histogram::Snapshot batch =
        latency_hist.snapshot().delta_since(before);
    if (batch.count() != kJobs) behaviour_ok = false;
    const double p50 = batch.quantile(0.50) * 1e9;
    const double p95 = batch.quantile(0.95) * 1e9;
    entries.push_back(
        {"service_latency", {{"p50_ns", p50}, {"p95_ns", p95}}});

    prom_snapshot = obs::render_prometheus(*service.metrics());
  }

  // --- overload: bounded queue must shed load, accepted jobs must land ----
  {
    constexpr std::size_t kBurst = 16;
    auto problem = service_problem(99);
    const ClusterConfig cfg = bench_config();
    ProofService service(
        {.num_workers = 2, .max_pending_jobs = 3});
    std::vector<std::future<RunReport>> futures;
    for (std::size_t i = 0; i < kBurst; ++i) {
      futures.push_back(service.submit(problem, cfg));
    }
    std::size_t accepted = 0, rejected = 0;
    for (auto& f : futures) {
      RunReport r = f.get();
      if (r.status == JobStatus::kRejected) {
        ++rejected;
      } else if (r.success) {
        ++accepted;
      } else {
        behaviour_ok = false;  // accepted job failed
      }
    }
    if (rejected == 0 || accepted == 0) behaviour_ok = false;
    entries.push_back({"overload",
                       {{"accepted_jobs", static_cast<double>(accepted)},
                        {"rejected_jobs", static_cast<double>(rejected)}}});
  }

  std::FILE* out = std::fopen(out_path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(out, "{\n  \"benchmarks\": {\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::fprintf(out, "    \"%s\": {", e.name.c_str());
    for (std::size_t m = 0; m < e.metrics.size(); ++m) {
      std::fprintf(out, "\"%s\": %.2f%s", e.metrics[m].key.c_str(),
                   e.metrics[m].value,
                   m + 1 < e.metrics.size() ? ", " : "");
    }
    std::fprintf(out, "}%s\n", i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  }\n}\n");
  std::fclose(out);

  // Prometheus text next to the JSON: <out>.prom, or BENCH_service.prom
  // when the output has the default .json suffix.
  std::string prom_path = out_path;
  const std::string json_suffix = ".json";
  if (prom_path.size() > json_suffix.size() &&
      prom_path.compare(prom_path.size() - json_suffix.size(),
                        json_suffix.size(), json_suffix) == 0) {
    prom_path.resize(prom_path.size() - json_suffix.size());
  }
  prom_path += ".prom";
  if (std::FILE* prom = std::fopen(prom_path.c_str(), "w")) {
    std::fwrite(prom_snapshot.data(), 1, prom_snapshot.size(), prom);
    std::fclose(prom);
  } else {
    std::fprintf(stderr, "cannot open %s\n", prom_path.c_str());
    return 1;
  }

  for (const Entry& e : entries) {
    std::printf("%s:", e.name.c_str());
    for (const Metric& m : e.metrics) {
      std::printf("  %s=%.2f", m.key.c_str(), m.value);
    }
    std::printf("\n");
  }
  if (!behaviour_ok) {
    std::fprintf(stderr,
                 "FAIL: service behaviour check (accepted job failed, or "
                 "overload produced no rejection/acceptance)\n");
    return 1;
  }
  return 0;
}
