#include "core/proof_service.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/erasure_stream.hpp"
#include "core/proof_session.hpp"

namespace camelot {

// One admitted job: the session plus everything the prime-granular
// tasks share. Tasks hold the job via shared_ptr, so a job lives until
// its last queued task is gone even after it settled.
struct ProofService::Job {
  std::shared_ptr<const CamelotProblem> problem;
  // The job's transport: its adversary's corruption, under an erasure
  // layer when the submit asked for loss.
  std::unique_ptr<ChannelStack> channel;
  std::unique_ptr<ProofSession> session;
  std::promise<RunReport> promise;
  std::atomic<std::size_t> primes_left{0};
  // Set exactly once, by whichever task completes the job, expires it,
  // or (at submit) rejects it; guards the promise.
  std::atomic<bool> settled{false};
  std::chrono::steady_clock::time_point submitted_at{};
  // time_point::max() when the job carries no deadline.
  std::chrono::steady_clock::time_point deadline{};
};

namespace {

// Evaluation threads per session when the submitted ClusterConfig
// leaves num_threads at 0: the worker pool is the scaling axis.
constexpr unsigned kThreadsPerSession = 1;

// The instant `deadline` after `from`, or time_point::max() (never)
// for a zero deadline. Rejects what the steady clock cannot hold: a
// negative deadline would silently mean "none", and one past the
// clock's range would overflow into the past.
std::chrono::steady_clock::time_point deadline_after(
    std::chrono::steady_clock::time_point from,
    std::chrono::milliseconds deadline) {
  using Clock = std::chrono::steady_clock;
  if (deadline.count() < 0) {
    throw std::invalid_argument("ProofService::submit: negative deadline");
  }
  if (deadline.count() == 0) return Clock::time_point::max();
  // Compare in milliseconds: converting `deadline` to the clock's finer
  // tick first could itself overflow.
  const auto headroom = std::chrono::floor<std::chrono::milliseconds>(
      Clock::time_point::max() - from);
  if (deadline > headroom) {
    throw std::invalid_argument(
        "ProofService::submit: deadline beyond the steady clock's range");
  }
  return from + deadline;
}

}  // namespace

ProofService::ProofService(ProofServiceConfig config)
    : config_(config),
      cache_(std::make_shared<FieldCache>()),
      codes_(std::make_shared<CodeCache>()),
      metrics_(std::make_shared<obs::Registry>()) {
  jobs_submitted_ = &metrics_->counter("camelot_jobs_submitted_total");
  jobs_completed_ = &metrics_->counter("camelot_jobs_completed_total");
  jobs_rejected_ = &metrics_->counter("camelot_jobs_rejected_total");
  jobs_expired_queued_ =
      &metrics_->counter("camelot_jobs_expired_queued_total");
  jobs_cancelled_inflight_ =
      &metrics_->counter("camelot_jobs_cancelled_inflight_total");
  plan_cache_hits_ = &metrics_->counter("camelot_plan_cache_hits_total");
  plan_cache_misses_ = &metrics_->counter("camelot_plan_cache_misses_total");
  decode_quotient_steps_ =
      &metrics_->counter("camelot_decode_quotient_steps_total");
  decode_hgcd_calls_ = &metrics_->counter("camelot_decode_hgcd_calls_total");
  repair_rounds_ = &metrics_->counter("camelot_repair_rounds_total");
  repaired_symbols_ = &metrics_->counter("camelot_repaired_symbols_total");
  queue_depth_ = &metrics_->gauge("camelot_queue_depth");
  queue_depth_high_water_ =
      &metrics_->gauge("camelot_queue_depth_high_water");
  job_latency_ = &metrics_->histogram("camelot_job_latency_seconds");

  const unsigned n = config_.num_workers != 0
                         ? config_.num_workers
                         : std::max(1u, std::thread::hardware_concurrency());
  workers_.reserve(n);
  try {
    for (unsigned i = 0; i < n; ++i) {
      workers_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // No destructor runs for a half-built service: join the workers
    // already started before their `this` goes away.
    stop_workers();
    throw;
  }
}

ProofService::~ProofService() { stop_workers(); }

void ProofService::stop_workers() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ProofService::worker_loop() {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      if (tasks_.empty()) return;  // stopping_ && drained
      task = tasks_.top();
      tasks_.pop();
      queue_depth_->set(static_cast<std::int64_t>(tasks_.size()));
    }
    run_task(task);
  }
}

void ProofService::release_pending() {
  std::lock_guard<std::mutex> lock(mu_);
  --pending_jobs_;
}

void ProofService::run_task(const Task& task) {
  Job& job = *task.job;
  // Settles `job` as kDeadlineExpired if no other task settled it
  // first. `queued` tells the two call sites apart for the metrics
  // split: an expiry caught before any streaming started costs nothing
  // but queue time, a mid-prime cancellation throws partial work away.
  const auto settle_expired = [this, &job](bool queued) {
    if (!job.settled.exchange(true)) {
      (queued ? jobs_expired_queued_ : jobs_cancelled_inflight_)->inc();
      release_pending();
      RunReport report;
      report.status = JobStatus::kDeadlineExpired;
      job.promise.set_value(std::move(report));
    }
  };
  // A settled job's remaining tasks are no-ops (it expired, or a
  // concurrent task already finished it).
  if (job.settled.load(std::memory_order_acquire)) return;
  if (std::chrono::steady_clock::now() > job.deadline) {
    settle_expired(/*queued=*/true);
    return;
  }
  try {
    // The cancel probe reaches the session's chunk boundaries: an
    // expired deadline (or a sibling task settling the job — failure
    // or expiry) aborts this prime mid-flight instead of finishing
    // work the submitter can no longer observe.
    Job* jp = &job;
    SessionCancelFn cancel = [jp] {
      return jp->settled.load(std::memory_order_acquire) ||
             std::chrono::steady_clock::now() > jp->deadline;
    };
    job.session->run_prime_streaming(task.prime_index, job.channel->top(),
                                     cancel);
  } catch (const SessionCancelled&) {
    settle_expired(/*queued=*/false);
    return;
  } catch (...) {
    // A throwing evaluator/problem must reach the submitter through
    // its future (as the pre-streaming packaged_task delivered it),
    // never escape a worker thread. The job's other tasks become
    // no-ops via the settled flag; the service keeps serving.
    if (!job.settled.exchange(true)) {
      release_pending();
      job.promise.set_exception(std::current_exception());
    }
    return;
  }
  if (job.primes_left.fetch_sub(1) == 1) {
    // Last prime done. The seq_cst decrements order every other
    // task's session writes before this read of the report.
    if (!job.settled.exchange(true)) {
      RunReport report = job.session->report();
      jobs_completed_->inc();
      for (const PrimeRunReport& pr : report.per_prime) {
        decode_quotient_steps_->inc(pr.decode_quotient_steps);
        decode_hgcd_calls_->inc(pr.decode_hgcd_calls);
        repair_rounds_->inc(pr.repair_rounds);
        repaired_symbols_->inc(pr.repaired_symbols);
      }
      // Submit-to-settle latency of completed jobs.
      job_latency_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        job.submitted_at)
              .count());
      release_pending();
      job.promise.set_value(std::move(report));
    }
  }
}

std::shared_ptr<const PrimePlan> ProofService::plan_for(
    const ProofSpec& spec, const ClusterConfig& config) {
  // The plan depends on exactly these spec/config fields. Redundancy
  // is keyed on its exact bit pattern — to_string's fixed six
  // decimals would alias close-but-distinct values to one plan.
  std::string key = std::to_string(spec.degree_bound) + '/' +
                    std::to_string(spec.min_modulus) + '/' +
                    std::to_string(spec.answer_count) + '/' +
                    (spec.answers_signed ? 's' : 'u') + '/' +
                    spec.answer_bound.to_string() + '/' +
                    std::to_string(std::bit_cast<u64>(config.redundancy)) +
                    '/' + std::to_string(config.num_primes);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = plans_.find(key);
    if (it != plans_.end()) {
      plan_cache_hits_->inc();
      return it->second;
    }
  }
  auto plan = std::make_shared<const PrimePlan>(
      plan_primes(spec, config.redundancy, config.num_primes));
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = plans_.emplace(std::move(key), plan);
  if (!inserted) {
    plan_cache_hits_->inc();
    return it->second;
  }
  plan_cache_misses_->inc();
  return plan;
}

std::future<RunReport> ProofService::submit(
    std::shared_ptr<const CamelotProblem> problem, ClusterConfig config,
    std::shared_ptr<const ByzantineAdversary> adversary,
    SubmitOptions options) {
  if (problem == nullptr) {
    throw std::invalid_argument("ProofService::submit: null problem");
  }
  if (config.num_threads == 0) {
    config.num_threads = kThreadsPerSession;
  }
  // Resolve the plan and build the session on the submitting thread:
  // cheap on cache hits, and it surfaces spec errors to the caller
  // synchronously.
  auto plan = plan_for(problem->spec(), config);

  auto job = std::make_shared<Job>();
  job->problem = std::move(problem);
  // With loss the job's primes exercise selective repair under the
  // scheduler.
  job->channel = std::make_unique<ChannelStack>(
      std::move(adversary), LossSpec{options.loss_rate, options.loss_seed});
  job->session = std::make_unique<ProofSession>(
      *job->problem, config, cache_, std::move(plan), codes_, metrics_);
  const std::size_t num_primes = job->session->num_primes();
  job->primes_left.store(num_primes);
  job->submitted_at = std::chrono::steady_clock::now();
  job->deadline = deadline_after(job->submitted_at, options.deadline);
  std::future<RunReport> future = job->promise.get_future();

  bool rejected = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::runtime_error("ProofService::submit: service is stopping");
    }
    rejected = config_.max_pending_jobs != 0 &&
               pending_jobs_ >= config_.max_pending_jobs;
    if (!rejected) {
      jobs_submitted_->inc();
      ++pending_jobs_;
      const std::uint64_t seq = next_seq_++;
      for (std::size_t pi = 0; pi < num_primes; ++pi) {
        tasks_.push(Task{seq, job->deadline, pi, job});
      }
      queue_depth_->set(static_cast<std::int64_t>(tasks_.size()));
      queue_depth_high_water_->max_of(
          static_cast<std::int64_t>(tasks_.size()));
    }
  }
  if (rejected) {
    jobs_rejected_->inc();
    job->settled.store(true);
    RunReport report;
    report.status = JobStatus::kRejected;
    job->promise.set_value(std::move(report));
    return future;
  }
  cv_.notify_all();
  return future;
}

ProofService::Stats ProofService::stats() const {
  Stats out;
  out.submitted = jobs_submitted_->value();
  out.completed = jobs_completed_->value();
  out.rejected = jobs_rejected_->value();
  out.expired_queued = jobs_expired_queued_->value();
  out.cancelled_inflight = jobs_cancelled_inflight_->value();
  out.plan_cache_hits = plan_cache_hits_->value();
  out.plan_cache_misses = plan_cache_misses_->value();
  out.decode_quotient_steps = decode_quotient_steps_->value();
  out.decode_hgcd_calls = decode_hgcd_calls_->value();
  out.repair_rounds = repair_rounds_->value();
  out.repaired_symbols = repaired_symbols_->value();
  out.queue_depth_high_water =
      static_cast<std::size_t>(queue_depth_high_water_->value());
  // Cache snapshots are taken outside mu_ (each cache has its own
  // lock; nesting them under mu_ would order the locks needlessly).
  out.field_cache = cache_->stats();
  out.code_cache = codes_->stats();
  return out;
}

}  // namespace camelot
