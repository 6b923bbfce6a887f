#include "core/proof_service.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "core/erasure_stream.hpp"
#include "core/proof_session.hpp"
#include "obs/trace.hpp"

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
  int priority = 0;
  std::chrono::steady_clock::time_point submitted_at{};
  bool has_deadline = false;
  std::chrono::steady_clock::time_point deadline{};
};

ProofService::ProofService(ProofServiceConfig config)
    : config_(config),
      cache_(std::make_shared<FieldCache>()),
      codes_(std::make_shared<CodeCache>()),
      metrics_(std::make_shared<obs::Registry>()) {
  jobs_submitted_ = &metrics_->counter("camelot_jobs_submitted_total");
  jobs_completed_ = &metrics_->counter("camelot_jobs_completed_total");
  jobs_rejected_ = &metrics_->counter("camelot_jobs_rejected_total");
  jobs_shed_infeasible_ =
      &metrics_->counter("camelot_jobs_shed_infeasible_total");
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
  workers_active_gauge_ = &metrics_->gauge("camelot_workers_active");
  workers_peak_ = &metrics_->gauge("camelot_workers_peak");
  job_latency_ = &metrics_->histogram("camelot_job_latency_seconds");

  unsigned n;
  if (config_.max_workers != 0) {
    config_.min_workers = std::max(1u, config_.min_workers);
    config_.max_workers =
        std::max(config_.max_workers, config_.min_workers);
    n = config_.num_workers != 0
            ? std::clamp(config_.num_workers, config_.min_workers,
                         config_.max_workers)
            : config_.min_workers;
  } else {
    n = config_.num_workers != 0
            ? config_.num_workers
            : std::max(1u, std::thread::hardware_concurrency());
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (unsigned i = 0; i < n; ++i) spawn_worker_locked();
}

ProofService::~ProofService() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
    // No worker retires itself after stopping_ is set (the retire
    // check runs under mu_), so this collection is complete.
    for (auto& [id, t] : workers_) to_join.push_back(std::move(t));
    workers_.clear();
    for (std::thread& t : retired_) to_join.push_back(std::move(t));
    retired_.clear();
  }
  cv_.notify_all();
  for (std::thread& t : to_join) t.join();
}

void ProofService::spawn_worker_locked() {
  const std::uint64_t id = next_worker_id_++;
  workers_.emplace(id, std::thread([this, id] { worker_loop(id); }));
  ++active_workers_;
  workers_active_gauge_->set(static_cast<std::int64_t>(active_workers_));
  workers_peak_->max_of(static_cast<std::int64_t>(active_workers_));
  CAMELOT_TRACE_MSG(obs::kTraceSched, "worker spawn id=%llu active=%zu",
                    static_cast<unsigned long long>(id), active_workers_);
}

void ProofService::reap_retired() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mu_);
    to_join.swap(retired_);
  }
  for (std::thread& t : to_join) t.join();
}

void ProofService::worker_loop(std::uint64_t worker_id) {
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (config_.max_workers != 0) {
        // Autoscaling pool: an idle wait that times out retires this
        // worker, down to min_workers. The retired thread object moves
        // to retired_ for an off-thread join (submit()/dtor).
        while (!stopping_ && tasks_.empty()) {
          const auto status = cv_.wait_for(lock, config_.autoscale_idle);
          if (status == std::cv_status::timeout && tasks_.empty() &&
              !stopping_ && active_workers_ > config_.min_workers) {
            auto it = workers_.find(worker_id);
            retired_.push_back(std::move(it->second));
            workers_.erase(it);
            --active_workers_;
            workers_active_gauge_->set(
                static_cast<std::int64_t>(active_workers_));
            CAMELOT_TRACE_MSG(obs::kTraceSched,
                              "worker retire id=%llu active=%zu",
                              static_cast<unsigned long long>(worker_id),
                              active_workers_);
            return;
          }
        }
      } else {
        cv_.wait(lock, [this] { return stopping_ || !tasks_.empty(); });
      }
      if (tasks_.empty()) return;  // stopping_ && drained
      task = tasks_.top();
      tasks_.pop();
      queue_depth_->set(static_cast<std::int64_t>(tasks_.size()));
    }
    run_task(task);
  }
}

void ProofService::settle_pending_locked(int priority) {
  --pending_jobs_;
  auto it = pending_by_priority_.find(priority);
  if (it != pending_by_priority_.end() && --it->second == 0) {
    pending_by_priority_.erase(it);
  }
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
      {
        std::lock_guard<std::mutex> lock(mu_);
        settle_pending_locked(job.priority);
      }
      RunReport report;
      report.status = JobStatus::kDeadlineExpired;
      job.promise.set_value(std::move(report));
    }
  };
  // A settled job's remaining tasks are no-ops (it expired, or a
  // concurrent task already finished it).
  if (job.settled.load(std::memory_order_acquire)) return;
  if (job.has_deadline && std::chrono::steady_clock::now() > job.deadline) {
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
             (jp->has_deadline &&
              std::chrono::steady_clock::now() > jp->deadline);
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
      {
        std::lock_guard<std::mutex> lock(mu_);
        settle_pending_locked(job.priority);
      }
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
      // Submit-to-settle latency: the distribution the predictive
      // shedder reads, so it only ever learns from completions.
      job_latency_->observe(
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        job.submitted_at)
              .count());
      {
        std::lock_guard<std::mutex> lock(mu_);
        settle_pending_locked(job.priority);
      }
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
    config.num_threads = std::max(1u, config_.threads_per_session);
  }
  // Join workers the autoscaler retired since the last submit (cheap:
  // those threads already returned from worker_loop).
  reap_retired();
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
  job->priority = options.priority;
  job->submitted_at = std::chrono::steady_clock::now();
  if (options.deadline.count() > 0) {
    job->has_deadline = true;
    job->deadline = job->submitted_at + options.deadline;
  }
  std::future<RunReport> future = job->promise.get_future();

  // The shedder's latency profile is read outside mu_ (snapshotting a
  // histogram never locks); the admission decision below uses it
  // together with the queue pressure read under mu_.
  obs::Histogram::Snapshot latency_profile;
  const bool may_shed = config_.latency_shedding && job->has_deadline;
  if (may_shed) latency_profile = job_latency_->snapshot();

  bool rejected = false;
  bool shed = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      throw std::runtime_error("ProofService::submit: service is stopping");
    }
    const auto bound_it =
        config_.max_pending_by_priority.find(options.priority);
    const bool priority_full =
        bound_it != config_.max_pending_by_priority.end() &&
        pending_by_priority_[options.priority] >= bound_it->second;
    const bool globally_full = config_.max_pending_jobs != 0 &&
                               pending_jobs_ >= config_.max_pending_jobs;
    if (priority_full || globally_full) {
      rejected = true;
    } else if (may_shed &&
               latency_profile.count() >= config_.shed_min_samples) {
      // Predicted completion: the calibrated p95 inflated by how many
      // jobs already share the pool. A job that cannot make its
      // deadline even optimistically is cheaper to refuse now than to
      // expire mid-decode later.
      const double p95 = latency_profile.quantile(0.95);
      const double pressure =
          1.0 + static_cast<double>(pending_jobs_) /
                    static_cast<double>(std::max<std::size_t>(
                        1, active_workers_));
      const double predicted = p95 * pressure;
      const double budget =
          std::chrono::duration<double>(options.deadline).count();
      if (predicted > budget) {
        rejected = true;
        shed = true;
        CAMELOT_TRACE_MSG(obs::kTraceSched,
                          "shed job priority=%d predicted=%.3fs "
                          "budget=%.3fs p95=%.3fs pending=%zu",
                          options.priority, predicted, budget, p95,
                          pending_jobs_);
      }
    }
    if (!rejected) {
      jobs_submitted_->inc();
      ++pending_jobs_;
      ++pending_by_priority_[options.priority];
      const std::uint64_t seq = next_seq_++;
      for (std::size_t pi = 0; pi < num_primes; ++pi) {
        tasks_.push(Task{options.priority, seq, job->has_deadline,
                         job->deadline, pi, job});
      }
      queue_depth_->set(static_cast<std::int64_t>(tasks_.size()));
      queue_depth_high_water_->max_of(
          static_cast<std::int64_t>(tasks_.size()));
      if (config_.max_workers != 0) {
        // Scale up while queued tasks outnumber the active pool. The
        // new threads block on mu_ until this submit releases it.
        while (active_workers_ < config_.max_workers &&
               tasks_.size() > active_workers_) {
          spawn_worker_locked();
        }
      }
    }
  }
  if (rejected) {
    jobs_rejected_->inc();
    if (shed) jobs_shed_infeasible_->inc();
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
  out.shed_infeasible = jobs_shed_infeasible_->value();
  out.expired_queued = jobs_expired_queued_->value();
  out.cancelled_inflight = jobs_cancelled_inflight_->value();
  out.expired = out.expired_queued + out.cancelled_inflight;
  out.plan_cache_hits = plan_cache_hits_->value();
  out.plan_cache_misses = plan_cache_misses_->value();
  out.decode_quotient_steps = decode_quotient_steps_->value();
  out.decode_hgcd_calls = decode_hgcd_calls_->value();
  out.repair_rounds = repair_rounds_->value();
  out.repaired_symbols = repaired_symbols_->value();
  out.queue_depth_high_water =
      static_cast<std::size_t>(queue_depth_high_water_->value());
  out.workers_active = static_cast<std::size_t>(workers_active_gauge_->value());
  out.workers_peak = static_cast<std::size_t>(workers_peak_->value());
  // Cache snapshots are taken outside mu_ (each cache has its own
  // lock; nesting them under mu_ would order the locks needlessly).
  out.field_cache = cache_->stats();
  out.code_cache = codes_->stats();
  return out;
}

}  // namespace camelot
