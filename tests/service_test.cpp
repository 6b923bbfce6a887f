// Tests for the concurrent ProofService facade: several distinct
// problems in flight at once, shared per-prime field state, prime
// plan and code caching, adversarial submissions, shutdown draining,
// and the backpressure scheduler (bounded queue, priorities, per-job
// deadlines).
#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "apps/conv3sum.hpp"
#include "apps/csp2.hpp"
#include "apps/hamming.hpp"
#include "apps/ov.hpp"
#include "core/proof_service.hpp"
#include "core/proof_session.hpp"
#include "core/symbol_stream.hpp"
#include "linalg/tensor.hpp"

namespace camelot {
namespace {

std::vector<std::shared_ptr<const CamelotProblem>> four_problems() {
  std::vector<std::shared_ptr<const CamelotProblem>> out;
  out.push_back(std::make_shared<OrthogonalVectorsProblem>(
      BoolMatrix::random(8, 5, 0.35, 11), BoolMatrix::random(8, 5, 0.35, 22)));
  out.push_back(std::make_shared<HammingDistributionProblem>(
      BoolMatrix::random(6, 4, 0.4, 33), BoolMatrix::random(6, 4, 0.4, 44)));
  out.push_back(std::make_shared<Conv3SumProblem>(
      std::vector<u64>{3, 1, 4, 1, 5, 9, 2, 6}, 6u));
  out.push_back(std::make_shared<Csp2Problem>(
      Csp2Instance::random(6, 2, 4, 0.5, 77), strassen_decomposition()));
  return out;
}

TEST(ProofService, ServesFourDistinctProblemsConcurrently) {
  ProofServiceConfig svc;
  svc.num_workers = 4;  // all four jobs genuinely in flight at once
  ProofService service(svc);

  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 1.5;

  auto problems = four_problems();
  std::vector<std::future<RunReport>> futures;
  futures.reserve(problems.size());
  for (const auto& p : problems) futures.push_back(service.submit(p, cfg));

  for (std::size_t i = 0; i < problems.size(); ++i) {
    RunReport report = futures[i].get();
    ASSERT_TRUE(report.success) << "problem " << i;
    // Same answers as a stand-alone run of the legacy facade.
    RunReport solo = ProofSession(*problems[i], cfg).run();
    ASSERT_EQ(report.answers.size(), solo.answers.size());
    for (std::size_t a = 0; a < report.answers.size(); ++a) {
      EXPECT_EQ(report.answers[a], solo.answers[a]);
    }
  }

  const ProofService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 4u);
  EXPECT_EQ(stats.completed, 4u);
  // Per-prime field state was populated in the shared cache.
  EXPECT_GT(service.field_cache()->stats().mont_misses, 0u);
  // The metrics surface mirrors both shared caches and records the
  // deepest queue: each submit pushes all of a job's prime tasks
  // under one lock, so the high-water mark saw at least one job's
  // worth of tasks.
  EXPECT_EQ(stats.field_cache.mont_misses,
            service.field_cache()->stats().mont_misses);
  EXPECT_EQ(stats.code_cache.misses, service.code_cache()->stats().misses);
  EXPECT_GT(stats.code_cache.misses, 0u);
  EXPECT_GT(stats.code_cache.resident, 0u);
  EXPECT_GT(stats.field_cache.resident, 0u);
  EXPECT_GE(stats.queue_depth_high_water, 1u);
}

TEST(ProofService, CachesPlansAndFieldStateAcrossResubmission) {
  ProofService service({.num_workers = 2});
  ClusterConfig cfg;
  cfg.num_nodes = 4;

  auto problems = four_problems();
  const auto& p = problems[0];
  RunReport first = service.submit(p, cfg).get();
  const ProofService::Stats cold = service.stats();
  EXPECT_EQ(cold.plan_cache_misses, 1u);
  const FieldCache::Stats field_cold = service.field_cache()->stats();

  RunReport second = service.submit(p, cfg).get();
  const ProofService::Stats warm = service.stats();
  EXPECT_EQ(warm.plan_cache_misses, 1u);
  EXPECT_GE(warm.plan_cache_hits, 1u);
  const FieldCache::Stats field_warm = service.field_cache()->stats();
  EXPECT_EQ(field_warm.mont_misses, field_cold.mont_misses);
  EXPECT_EQ(field_warm.ntt_misses, field_cold.ntt_misses);
  EXPECT_GT(field_warm.mont_hits, field_cold.mont_hits);
  // The aggregated Stats carries the same counters (one scrape point
  // for a metrics exporter).
  EXPECT_EQ(warm.field_cache.mont_hits, field_warm.mont_hits);
  EXPECT_EQ(warm.field_cache.ntt_hits, field_warm.ntt_hits);

  ASSERT_TRUE(first.success);
  ASSERT_TRUE(second.success);
  ASSERT_EQ(first.answers.size(), second.answers.size());
  for (std::size_t a = 0; a < first.answers.size(); ++a) {
    EXPECT_EQ(first.answers[a], second.answers[a]);
  }
}

TEST(ProofService, AdversarialSubmission) {
  ProofService service({.num_workers = 2});
  ClusterConfig cfg;
  cfg.num_nodes = 10;
  cfg.redundancy = 3.0;

  auto problems = four_problems();
  auto adversary = std::make_shared<const ByzantineAdversary>(
      std::vector<std::size_t>{3, 7}, ByzantineStrategy::kOffByOne, 99);
  RunReport report = service.submit(problems[0], cfg, adversary).get();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.implicated_nodes(), (std::vector<std::size_t>{3, 7}));

  // Corrupted primes exercised the decoder's remainder sequence; the
  // per-prime counters roll up into the service-wide metrics scrape.
  std::size_t steps = 0, calls = 0;
  for (const PrimeRunReport& pr : report.per_prime) {
    EXPECT_GT(pr.decode_quotient_steps, 0u);
    EXPECT_GE(pr.decode_hgcd_calls, 1u);
    steps += pr.decode_quotient_steps;
    calls += pr.decode_hgcd_calls;
  }
  const ProofService::Stats stats = service.stats();
  EXPECT_EQ(stats.decode_quotient_steps, steps);
  EXPECT_EQ(stats.decode_hgcd_calls, calls);
}

TEST(ProofService, ResultsIndependentOfWorkerCount) {
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  auto problems = four_problems();

  std::vector<RunReport> wide, narrow;
  {
    ProofService service({.num_workers = 8});
    std::vector<std::future<RunReport>> fs;
    for (const auto& p : problems) fs.push_back(service.submit(p, cfg));
    for (auto& f : fs) wide.push_back(f.get());
  }
  {
    ProofService service({.num_workers = 1});
    std::vector<std::future<RunReport>> fs;
    for (const auto& p : problems) fs.push_back(service.submit(p, cfg));
    for (auto& f : fs) narrow.push_back(f.get());
  }
  for (std::size_t i = 0; i < problems.size(); ++i) {
    ASSERT_EQ(wide[i].success, narrow[i].success);
    ASSERT_EQ(wide[i].answers.size(), narrow[i].answers.size());
    for (std::size_t a = 0; a < wide[i].answers.size(); ++a) {
      EXPECT_EQ(wide[i].answers[a], narrow[i].answers[a]);
    }
    for (std::size_t pi = 0; pi < wide[i].per_prime.size(); ++pi) {
      EXPECT_EQ(wide[i].per_prime[pi].answer_residues,
                narrow[i].per_prime[pi].answer_residues);
    }
  }
}

TEST(ProofService, DestructorDrainsQueuedJobs) {
  auto problems = four_problems();
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  std::vector<std::future<RunReport>> futures;
  {
    ProofService service({.num_workers = 1});
    for (int rep = 0; rep < 3; ++rep) {
      for (const auto& p : problems) {
        futures.push_back(service.submit(p, cfg));
      }
    }
    // Service goes out of scope with most jobs still queued.
  }
  for (auto& f : futures) {
    RunReport report = f.get();  // never a broken promise
    EXPECT_TRUE(report.success);
  }
}

TEST(ProofService, RejectsNullProblem) {
  ProofService service({.num_workers = 1});
  EXPECT_THROW(service.submit(nullptr), std::invalid_argument);
}

// Delegating problem that records the execution order of jobs: the
// first make_evaluator call of a job happens when a worker starts its
// first prime task, so first-occurrence order in the log is the
// scheduler's dispatch order.
class TaggedProblem final : public CamelotProblem {
 public:
  TaggedProblem(std::shared_ptr<const CamelotProblem> inner, std::string tag,
                std::shared_ptr<std::vector<std::string>> log,
                std::shared_ptr<std::mutex> mu)
      : inner_(std::move(inner)),
        tag_(std::move(tag)),
        log_(std::move(log)),
        mu_(std::move(mu)) {}

  std::string name() const override { return inner_->name(); }
  ProofSpec spec() const override { return inner_->spec(); }
  std::unique_ptr<Evaluator> make_evaluator(const FieldOps& f) const override {
    {
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back(tag_);
    }
    return inner_->make_evaluator(f);
  }
  std::vector<u64> recover(const Poly& proof,
                           const PrimeField& f) const override {
    return inner_->recover(proof, f);
  }

 private:
  std::shared_ptr<const CamelotProblem> inner_;
  std::string tag_;
  std::shared_ptr<std::vector<std::string>> log_;
  std::shared_ptr<std::mutex> mu_;
};

TEST(ProofService, BoundedQueueRejectsOverload) {
  ProofService service(
      {.num_workers = 1, .threads_per_session = 1, .max_pending_jobs = 2});
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;

  auto problems = four_problems();
  std::vector<std::future<RunReport>> futures;
  constexpr int kBurst = 8;
  for (int i = 0; i < kBurst; ++i) {
    futures.push_back(service.submit(problems[0], cfg));
  }
  std::size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    RunReport report = f.get();
    if (report.status == JobStatus::kRejected) {
      ++rejected;
      EXPECT_FALSE(report.success);
      EXPECT_TRUE(report.answers.empty());
    } else {
      ++ok;
      EXPECT_EQ(report.status, JobStatus::kOk);
      EXPECT_TRUE(report.success);
    }
  }
  // One worker against an instant burst of 8 with room for 2: at
  // least the submissions racing the very first job must bounce.
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(ok, 0u);
  EXPECT_EQ(ok + rejected, static_cast<std::size_t>(kBurst));
  const ProofService::Stats stats = service.stats();
  EXPECT_EQ(stats.rejected, rejected);
  EXPECT_EQ(stats.submitted, ok);
  EXPECT_EQ(stats.completed, ok);
}

// Delegating problem whose evaluators sleep before each chunk: keeps
// a job in flight long enough for its deadline to expire mid-prime.
class SlowProblem final : public CamelotProblem {
 public:
  SlowProblem(std::shared_ptr<const CamelotProblem> inner,
              std::chrono::milliseconds per_chunk)
      : inner_(std::move(inner)), per_chunk_(per_chunk) {}
  std::string name() const override { return inner_->name(); }
  ProofSpec spec() const override { return inner_->spec(); }
  std::unique_ptr<Evaluator> make_evaluator(const FieldOps& f) const override {
    class SlowEvaluator final : public Evaluator {
     public:
      SlowEvaluator(std::unique_ptr<Evaluator> inner,
                    std::chrono::milliseconds delay, const FieldOps& f)
          : Evaluator(f), inner_(std::move(inner)), delay_(delay) {}
      u64 eval(u64 x0) override { return inner_->eval(x0); }
      std::vector<u64> evaluate_points(std::span<const u64> xs) override {
        std::this_thread::sleep_for(delay_);
        return inner_->evaluate_points(xs);
      }

     private:
      std::unique_ptr<Evaluator> inner_;
      std::chrono::milliseconds delay_;
    };
    return std::make_unique<SlowEvaluator>(inner_->make_evaluator(f),
                                           per_chunk_, f);
  }
  std::vector<u64> recover(const Poly& proof,
                           const PrimeField& f) const override {
    return inner_->recover(proof, f);
  }

 private:
  std::shared_ptr<const CamelotProblem> inner_;
  std::chrono::milliseconds per_chunk_;
};

TEST(ProofService, DeadlineExpiresQueuedJob) {
  ProofService service({.num_workers = 1});
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;
  auto problems = four_problems();

  // Occupy the single worker with slow evaluators (the systematic
  // fast path made the plain problems finish in well under a
  // millisecond), then queue a job whose deadline will have passed by
  // the time the worker reaches it. The sleep lets the worker sink
  // into the first blocker chunk before the doomed job is submitted —
  // deadline-bearing tasks sort ahead of deadline-less ones, so an
  // idle worker would otherwise run the doomed job first.
  std::vector<std::future<RunReport>> blockers;
  for (int i = 0; i < 3; ++i) {
    blockers.push_back(service.submit(
        std::make_shared<SlowProblem>(problems[i % problems.size()],
                                      std::chrono::milliseconds(30)),
        cfg));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  SubmitOptions doomed;
  doomed.deadline = std::chrono::milliseconds(1);
  std::future<RunReport> expired =
      service.submit(problems[3], cfg, nullptr, doomed);

  RunReport report = expired.get();
  EXPECT_EQ(report.status, JobStatus::kDeadlineExpired);
  EXPECT_FALSE(report.success);
  EXPECT_TRUE(report.answers.empty());
  for (auto& f : blockers) {
    EXPECT_TRUE(f.get().success);  // deadline never harms other jobs
  }
  const ProofService::Stats stats = service.stats();
  EXPECT_EQ(stats.expired, 1u);
  EXPECT_EQ(stats.completed, 3u);

  // A generous deadline does not interfere with completion.
  SubmitOptions relaxed;
  relaxed.deadline = std::chrono::minutes(10);
  RunReport fine = service.submit(problems[3], cfg, nullptr, relaxed).get();
  EXPECT_EQ(fine.status, JobStatus::kOk);
  EXPECT_TRUE(fine.success);
}

TEST(ProofService, HigherPriorityJobsDispatchFirst) {
  auto log = std::make_shared<std::vector<std::string>>();
  auto mu = std::make_shared<std::mutex>();
  auto problems = four_problems();
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;

  ProofService service({.num_workers = 1});
  // Blockers keep the single worker busy while low/high sit queued
  // (the worker may race ahead and grab one of them as its very first
  // task — which is why only the high-before-low order is asserted).
  std::vector<std::future<RunReport>> blockers;
  for (int i = 0; i < 3; ++i) {
    blockers.push_back(service.submit(
        std::make_shared<TaggedProblem>(problems[0], "blocker", log, mu),
        cfg));
  }
  auto low = std::make_shared<TaggedProblem>(problems[1], "low", log, mu);
  auto high = std::make_shared<TaggedProblem>(problems[2], "high", log, mu);
  auto f_low = service.submit(low, cfg, nullptr, SubmitOptions{.priority = 0});
  auto f_high =
      service.submit(high, cfg, nullptr, SubmitOptions{.priority = 7});
  for (auto& f : blockers) ASSERT_TRUE(f.get().success);
  ASSERT_TRUE(f_low.get().success);
  ASSERT_TRUE(f_high.get().success);

  auto first_of = [&](const std::string& tag) {
    for (std::size_t i = 0; i < log->size(); ++i) {
      if ((*log)[i] == tag) return i;
    }
    return log->size();
  };
  EXPECT_LT(first_of("high"), first_of("low"));
}

// Problem whose evaluators throw: job failures must surface through
// the submitter's future, not kill a worker thread.
class ThrowingProblem final : public CamelotProblem {
 public:
  explicit ThrowingProblem(std::shared_ptr<const CamelotProblem> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  ProofSpec spec() const override { return inner_->spec(); }
  std::unique_ptr<Evaluator> make_evaluator(const FieldOps&) const override {
    throw std::runtime_error("ThrowingProblem: evaluator construction");
  }
  std::vector<u64> recover(const Poly& proof,
                           const PrimeField& f) const override {
    return inner_->recover(proof, f);
  }

 private:
  std::shared_ptr<const CamelotProblem> inner_;
};

TEST(ProofService, JobExceptionsPropagateThroughFuture) {
  ProofService service({.num_workers = 2});
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  auto problems = four_problems();

  auto bad = std::make_shared<ThrowingProblem>(problems[0]);
  EXPECT_THROW(service.submit(bad, cfg).get(), std::runtime_error);
  // The worker survived; healthy jobs still serve.
  EXPECT_TRUE(service.submit(problems[0], cfg).get().success);
  const ProofService::Stats stats = service.stats();
  EXPECT_EQ(stats.submitted, 2u);
  EXPECT_EQ(stats.completed, 1u);
}

TEST(ProofService, DeadlineExpiryStopsInFlightPrimes) {
  // One worker, one job: the worker starts the job while its deadline
  // is still in the future, so the expiry can only be observed at a
  // chunk boundary *inside* run_prime_streaming — the in-flight
  // cancellation path, not the pre-start check.
  ProofService service({.num_workers = 1});
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.num_threads = 1;
  cfg.num_primes = 2;
  auto problems = four_problems();
  // Full run would sleep 2 primes x 8 chunks x 50 ms = 800 ms.
  auto slow = std::make_shared<SlowProblem>(problems[0],
                                            std::chrono::milliseconds(50));
  SubmitOptions opt;
  opt.deadline = std::chrono::milliseconds(120);
  const auto t0 = std::chrono::steady_clock::now();
  RunReport report = service.submit(slow, cfg, nullptr, opt).get();
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(report.status, JobStatus::kDeadlineExpired);
  EXPECT_FALSE(report.success);
  // The job aborted at a chunk boundary shortly after its deadline,
  // far before the 800 ms an uncancelled run would sleep.
  EXPECT_LT(elapsed, std::chrono::milliseconds(650));
  EXPECT_EQ(service.stats().expired, 1u);
}

TEST(ProofSession, CancelProbeAbortsPrimeAndResets) {
  auto problems = four_problems();
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.num_threads = 1;
  ProofSession session(*problems[0], cfg);
  LosslessStreamingChannel channel;
  int polls = 0;
  EXPECT_THROW(session.run_prime_streaming(
                   0, channel,
                   [&polls] {
                     ++polls;
                     return true;
                   }),
               SessionCancelled);
  EXPECT_GT(polls, 0);
  // The aborted prime is back at kCreated, and a fresh un-cancelled
  // run of the same prime completes normally.
  EXPECT_EQ(session.stage(0), SessionStage::kCreated);
  session.run_prime_streaming(0, channel);
  EXPECT_EQ(session.stage(0), SessionStage::kRecovered);
}

TEST(ProofService, EqualPriorityTasksRunEarliestDeadlineFirst) {
  auto log = std::make_shared<std::vector<std::string>>();
  auto mu = std::make_shared<std::mutex>();
  auto problems = four_problems();
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;

  ProofService service({.num_workers = 1});
  // Occupy the single worker so the two probes sit queued together.
  std::vector<std::future<RunReport>> blockers;
  for (int i = 0; i < 3; ++i) {
    blockers.push_back(service.submit(
        std::make_shared<TaggedProblem>(problems[0], "blocker", log, mu),
        cfg));
  }
  auto fifo = std::make_shared<TaggedProblem>(problems[1], "fifo", log, mu);
  auto edf = std::make_shared<TaggedProblem>(problems[2], "edf", log, mu);
  // Same priority; the earlier-submitted job has no deadline, the
  // later one a (generous) deadline — EDF must reorder them.
  auto f_fifo = service.submit(fifo, cfg);
  SubmitOptions with_deadline;
  with_deadline.deadline = std::chrono::minutes(10);
  auto f_edf = service.submit(edf, cfg, nullptr, with_deadline);
  for (auto& f : blockers) ASSERT_TRUE(f.get().success);
  ASSERT_TRUE(f_fifo.get().success);
  ASSERT_TRUE(f_edf.get().success);

  auto first_of = [&](const std::string& tag) {
    for (std::size_t i = 0; i < log->size(); ++i) {
      if ((*log)[i] == tag) return i;
    }
    return log->size();
  };
  EXPECT_LT(first_of("edf"), first_of("fifo"));
}

TEST(ProofService, PredictiveSheddingRejectsInfeasibleDeadline) {
  ProofServiceConfig svc;
  svc.num_workers = 1;
  svc.shed_min_samples = 4;  // shorter calibration than the default 8
  ProofService service(svc);
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;
  auto problems = four_problems();
  auto slow = std::make_shared<SlowProblem>(problems[0],
                                            std::chrono::milliseconds(20));

  // Calibrate the job-latency histogram with completions well above
  // the doomed deadline (4 chunks x 20 ms each).
  for (std::size_t i = 0; i < svc.shed_min_samples; ++i) {
    ASSERT_TRUE(service.submit(slow, cfg).get().success);
  }

  // Infeasible: 1 ms deadline against a calibrated p95 of ~100 ms.
  // Shed at submit — the future is ready immediately, no worker ran.
  SubmitOptions tight;
  tight.deadline = std::chrono::milliseconds(1);
  std::future<RunReport> doomed =
      service.submit(slow, cfg, nullptr, tight);
  ASSERT_EQ(doomed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  RunReport report = doomed.get();
  EXPECT_EQ(report.status, JobStatus::kRejected);
  EXPECT_FALSE(report.success);
  ProofService::Stats stats = service.stats();
  EXPECT_EQ(stats.shed_infeasible, 1u);
  EXPECT_EQ(stats.rejected, 1u);  // sheds count as rejections

  // The same job with a generous deadline passes the predictor and
  // completes.
  SubmitOptions generous;
  generous.deadline = std::chrono::minutes(10);
  RunReport fine = service.submit(slow, cfg, nullptr, generous).get();
  EXPECT_EQ(fine.status, JobStatus::kOk);
  EXPECT_TRUE(fine.success);
  stats = service.stats();
  EXPECT_EQ(stats.shed_infeasible, 1u);
  EXPECT_EQ(stats.completed, svc.shed_min_samples + 1);
}

TEST(ProofService, PerPriorityBoundIsolatesPriorityClasses) {
  ProofServiceConfig svc;
  svc.num_workers = 1;
  svc.max_pending_by_priority = {{0, 1}};  // priority 0: one job at a time
  ProofService service(svc);
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;
  auto problems = four_problems();
  auto slow = std::make_shared<SlowProblem>(problems[0],
                                            std::chrono::milliseconds(50));

  // First priority-0 job fills that priority's bound while it runs.
  auto running = service.submit(slow, cfg);
  // Second priority-0 submit bounces off the per-priority bound...
  RunReport bounced = service.submit(slow, cfg).get();
  EXPECT_EQ(bounced.status, JobStatus::kRejected);
  // ...while an unbounded priority class is still admitted.
  auto urgent =
      service.submit(problems[1], cfg, nullptr, SubmitOptions{.priority = 5});
  EXPECT_TRUE(running.get().success);
  EXPECT_TRUE(urgent.get().success);
  const ProofService::Stats stats = service.stats();
  EXPECT_EQ(stats.rejected, 1u);
  EXPECT_EQ(stats.shed_infeasible, 0u);
  EXPECT_EQ(stats.completed, 2u);
}

TEST(ProofService, AutoscalerGrowsUnderLoadAndConvergesToMin) {
  ProofServiceConfig svc;
  svc.max_workers = 4;
  svc.min_workers = 1;
  svc.autoscale_idle = std::chrono::milliseconds(50);
  ProofService service(svc);
  EXPECT_EQ(service.stats().workers_active, 1u);  // starts at min

  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;
  auto problems = four_problems();
  std::vector<std::future<RunReport>> futures;
  for (int rep = 0; rep < 3; ++rep) {
    for (const auto& p : problems) {
      futures.push_back(service.submit(
          std::make_shared<SlowProblem>(p, std::chrono::milliseconds(10)),
          cfg));
    }
  }
  for (auto& f : futures) EXPECT_TRUE(f.get().success);

  ProofService::Stats stats = service.stats();
  // The backlog grew the pool, but never past max_workers.
  EXPECT_GT(stats.workers_peak, 1u);
  EXPECT_LE(stats.workers_peak, 4u);
  EXPECT_LE(stats.workers_active, 4u);
  EXPECT_EQ(stats.completed, futures.size());

  // Idle workers retire back down to min_workers.
  for (int i = 0; i < 200 && service.stats().workers_active > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(service.stats().workers_active, 1u);

  // The shrunken pool still serves.
  EXPECT_TRUE(service.submit(problems[0], cfg).get().success);
}

TEST(ProofService, SharesCodeCacheAcrossJobs) {
  ProofService service({.num_workers = 2});
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  auto problems = four_problems();

  RunReport first = service.submit(problems[0], cfg).get();
  ASSERT_TRUE(first.success);
  const CodeCache::Stats cold = service.code_cache()->stats();
  EXPECT_GT(cold.misses, 0u);

  // A spec-identical job (same problem resubmitted) reuses every
  // (prime, d, e) code: no new tree builds.
  RunReport second = service.submit(problems[0], cfg).get();
  ASSERT_TRUE(second.success);
  const CodeCache::Stats warm = service.code_cache()->stats();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_GE(warm.hits, cold.hits + cold.misses);
  ASSERT_EQ(first.answers.size(), second.answers.size());
  for (std::size_t a = 0; a < first.answers.size(); ++a) {
    EXPECT_EQ(first.answers[a], second.answers[a]);
  }
}

}  // namespace
}  // namespace camelot
