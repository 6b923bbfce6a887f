// Concurrent proof-preparation service — the traffic-serving facade.
//
// A ProofService owns a fixed pool of worker threads plus the keyed
// caches that make repeated jobs cheap:
//
//   * a FieldCache (MontgomeryField + NTT twiddle tables per prime),
//     shared by every session the service runs;
//   * a PrimePlan cache keyed by (proof spec, redundancy, num_primes),
//     so resubmitted or spec-identical problems skip the prime search;
//   * a CodeCache keyed by (prime, degree bound, code length, backend),
//     so spec-identical batches share one ReedSolomonCode and its
//     subgroup tables instead of rebuilding them per session.
//
// Scheduling is *prime-granular*: submit() splits a job into one task
// per CRT prime, and every worker pulls tasks from one shared
// deadline-ordered queue — so the primes of a single job run on
// several workers, and a worker that finishes its job's primes
// immediately steals another job's. Each task drives the full
// streaming pipeline for its prime (prepare -> streaming transport ->
// incremental Gao decode -> verify -> recover) through a
// StreamingSymbolChannel, overlapping stages that the barrier pipeline
// serialized.
//
// Backpressure: the submit queue can be bounded (max_pending_jobs);
// an overflowing submit() resolves its future immediately with
// JobStatus::kRejected rather than queueing unboundedly. Jobs may
// carry a deadline; a job whose deadline passes before it finishes
// resolves with JobStatus::kDeadlineExpired. The queue runs
// earliest-deadline-first, FIFO within a deadline.
//
// Every counter the service maintains lives in an obs::Registry (one
// per service, reachable via metrics()); Stats is a point-in-time view
// over that registry, and the same registry feeds the per-stage span
// histograms of every session the service runs — so one Prometheus or
// JSON scrape covers admission, queueing and stage latency together.
//
// Determinism: results depend only on (problem, config), never on
// worker interleaving, because all per-run randomness is derived from
// (config.seed, prime, stage) — see core/rng.hpp — and the streaming
// transport's delivered word is order-independent by contract.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/byzantine.hpp"
#include "core/cluster_types.hpp"
#include "core/prime_plan.hpp"
#include "core/proof_problem.hpp"
#include "field/field_cache.hpp"
#include "obs/metrics.hpp"
#include "rs/code_cache.hpp"

namespace camelot {

struct ProofServiceConfig {
  // Worker threads (0 = hardware concurrency).
  unsigned num_workers = 0;
  // Upper bound on jobs admitted but not yet finished (0 = unbounded).
  // When the bound is reached, submit() resolves the returned future
  // immediately with JobStatus::kRejected.
  std::size_t max_pending_jobs = 0;
};

// Per-job scheduling knobs for ProofService::submit.
struct SubmitOptions {
  // Zero = no deadline. Measured from submit() on the steady clock;
  // tasks run earliest-deadline-first (a job without a deadline sorts
  // as deadline = infinity), and FIFO by submission order when
  // deadlines tie or no job in the queue carries one. A job that has
  // not finished when its deadline passes resolves with
  // JobStatus::kDeadlineExpired — checked when one of its tasks
  // reaches a worker *and* at every chunk boundary of its in-flight
  // primes (SessionCancelled propagation), so an expired job stops
  // burning workers mid-prime. A negative deadline, or one longer than
  // the steady clock can represent from now, throws
  // std::invalid_argument.
  std::chrono::milliseconds deadline{0};
  // Lossy-transport simulation: when > 0 the job's streaming channel
  // runs through an ErasureStreamingChannel at this marginal
  // per-symbol drop rate (composing with the adversary's corruption,
  // seeded by loss_seed), so the job's primes exercise selective
  // repair under the scheduler — bounded by the submitted
  // ClusterConfig::repair_budget.
  double loss_rate = 0.0;
  u64 loss_seed = 0;
};

class ProofService {
 public:
  explicit ProofService(ProofServiceConfig config = {});
  // Drains every queued job, then joins the workers.
  ~ProofService();

  ProofService(const ProofService&) = delete;
  ProofService& operator=(const ProofService&) = delete;

  // Enqueues one problem. The problem (and adversary, if any) are
  // held alive by the job via shared_ptr. A config that leaves
  // num_threads at 0 runs one evaluation thread per session (the pool
  // is the scaling axis). Throws std::runtime_error after shutdown
  // began, std::invalid_argument on a null problem or an out-of-range
  // loss rate or deadline. Never throws on overload: a rejected job's
  // future resolves at once with JobStatus::kRejected (success=false).
  std::future<RunReport> submit(
      std::shared_ptr<const CamelotProblem> problem,
      ClusterConfig config = {},
      std::shared_ptr<const ByzantineAdversary> adversary = nullptr,
      SubmitOptions options = {});

  // The per-prime field cache shared by every session of this service.
  const std::shared_ptr<FieldCache>& field_cache() const noexcept {
    return cache_;
  }
  // The (prime, d, e) Reed--Solomon code cache shared across jobs.
  const std::shared_ptr<CodeCache>& code_cache() const noexcept {
    return codes_;
  }

  // Point-in-time view over the service's metrics registry (see
  // metrics()); every field is backed by a named counter or gauge
  // there, so a Prometheus/JSON scrape and a stats() call agree.
  struct Stats {
    std::size_t submitted = 0;  // admitted jobs (excludes rejections)
    std::size_t completed = 0;  // jobs that ran to completion
    std::size_t rejected = 0;   // max_pending_jobs rejections
    std::size_t plan_cache_hits = 0;
    std::size_t plan_cache_misses = 0;
    // Largest number of per-prime tasks ever resident in the queue —
    // the capacity-planning signal for num_workers/max_pending_jobs.
    std::size_t queue_depth_high_water = 0;
    // Deadline expiries split by where the job was caught: still
    // queued (no work lost) vs cancelled mid-prime (partial work
    // thrown away).
    std::size_t expired_queued = 0;
    std::size_t cancelled_inflight = 0;
    // Gao-decoder work aggregated over completed jobs' primes:
    // genuine Euclidean quotient steps, and entries into the half-GCD
    // routine (one per decode when the remainder sequence stays below
    // kHgcdCrossover, more when the recursive cascade engages). The
    // ratio steps/calls shows how dense the corrected errors were.
    std::size_t decode_quotient_steps = 0;
    std::size_t decode_hgcd_calls = 0;
    // Selective-repair work aggregated over completed jobs' primes:
    // repair rounds entered and symbols re-pushed after erasure
    // shortfalls (0 unless submits carry a loss_rate).
    std::size_t repair_rounds = 0;
    std::size_t repaired_symbols = 0;
    // Snapshots of the shared caches (same objects reachable through
    // field_cache()/code_cache(), surfaced here so one stats() call
    // is a complete metrics scrape).
    FieldCache::Stats field_cache;
    CodeCache::Stats code_cache;
  };
  Stats stats() const;

  // The service's metrics registry: admission/queue counters, the
  // camelot_job_latency_seconds submit-to-settle histogram, and the
  // per-stage span histograms of every session this service
  // runs. Render it with obs::render_prometheus / obs::render_json.
  const std::shared_ptr<obs::Registry>& metrics() const noexcept {
    return metrics_;
  }

 private:
  struct Job;
  struct Task {
    std::uint64_t seq = 0;  // admission order
    // time_point::max() when the job carries no deadline.
    std::chrono::steady_clock::time_point deadline{};
    std::size_t prime_index = 0;
    std::shared_ptr<Job> job;
  };
  struct TaskOrder {
    bool operator()(const Task& a, const Task& b) const {
      // priority_queue pops the *largest*: earliest deadline first (no
      // deadline = infinitely late, so a pure-FIFO workload stays
      // FIFO); then earliest admission, then ascending prime index.
      if (a.deadline != b.deadline) return a.deadline > b.deadline;
      if (a.seq != b.seq) return a.seq > b.seq;
      return a.prime_index > b.prime_index;
    }
  };

  std::shared_ptr<const PrimePlan> plan_for(const ProofSpec& spec,
                                            const ClusterConfig& config);
  // Drains the queue, then joins every worker.
  void stop_workers();
  void worker_loop();
  void run_task(const Task& task);
  void release_pending();

  ProofServiceConfig config_;
  std::shared_ptr<FieldCache> cache_;
  std::shared_ptr<CodeCache> codes_;

  // Registry plus pre-resolved metric handles (stable addresses, so
  // the hot paths below never take the registry lock).
  std::shared_ptr<obs::Registry> metrics_;
  obs::Counter* jobs_submitted_ = nullptr;
  obs::Counter* jobs_completed_ = nullptr;
  obs::Counter* jobs_rejected_ = nullptr;
  obs::Counter* jobs_expired_queued_ = nullptr;
  obs::Counter* jobs_cancelled_inflight_ = nullptr;
  obs::Counter* plan_cache_hits_ = nullptr;
  obs::Counter* plan_cache_misses_ = nullptr;
  obs::Counter* decode_quotient_steps_ = nullptr;
  obs::Counter* decode_hgcd_calls_ = nullptr;
  obs::Counter* repair_rounds_ = nullptr;
  obs::Counter* repaired_symbols_ = nullptr;
  obs::Gauge* queue_depth_ = nullptr;
  obs::Gauge* queue_depth_high_water_ = nullptr;
  obs::Histogram* job_latency_ = nullptr;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stopping_ = false;
  std::priority_queue<Task, std::vector<Task>, TaskOrder> tasks_;
  std::uint64_t next_seq_ = 0;
  std::size_t pending_jobs_ = 0;  // admitted, not yet settled
  std::unordered_map<std::string, std::shared_ptr<const PrimePlan>> plans_;

  std::vector<std::thread> workers_;
};

}  // namespace camelot
