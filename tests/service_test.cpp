// Tests for the concurrent ProofService facade: several distinct
// problems in flight at once, shared per-prime field state, prime
// plan and code caching, adversarial submissions, shutdown draining,
// and the backpressure scheduler (bounded queue, earliest-deadline-
// first order, per-job deadlines and their range check).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
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

TEST(ProofService, RejectsLossRateOutsideUnitInterval) {
  // A NaN or negative rate must not run as a lossless job.
  ProofService service({.num_workers = 1});
  auto problem = four_problems()[0];
  for (double rate : {std::nan(""), -0.1}) {
    SubmitOptions options;
    options.loss_rate = rate;
    EXPECT_THROW(service.submit(problem, {}, nullptr, options),
                 std::invalid_argument)
        << "rate " << rate;
  }
}

TEST(ProofService, RejectsDeadlineOutsideClockRange) {
  // A negative deadline must not run as a deadline-free job, and one
  // the steady clock cannot represent must not overflow into the past
  // (and so expire at once).
  ProofService service({.num_workers = 1});
  auto problem = four_problems()[0];
  for (std::chrono::milliseconds deadline :
       {std::chrono::milliseconds(-1), std::chrono::milliseconds::max(),
        std::chrono::milliseconds(std::chrono::hours(24 * 365 * 300))}) {
    SubmitOptions options;
    options.deadline = deadline;
    EXPECT_THROW(service.submit(problem, {}, nullptr, options),
                 std::invalid_argument)
        << "deadline " << deadline.count() << " ms";
  }
  EXPECT_EQ(service.stats().submitted, 0u);
}

// Delegating problem that records the execution order of jobs: the
// first make_evaluator call of a job happens when a worker starts its
// first prime task, so first-occurrence order in the log is the
// scheduler's dispatch order.
class TaggedProblem final : public CamelotProblem {
 public:
  // A valid `gate` holds every evaluator construction until it opens.
  TaggedProblem(std::shared_ptr<const CamelotProblem> inner, std::string tag,
                std::shared_ptr<std::vector<std::string>> log,
                std::shared_ptr<std::mutex> mu,
                std::shared_future<void> gate = {})
      : inner_(std::move(inner)),
        tag_(std::move(tag)),
        log_(std::move(log)),
        mu_(std::move(mu)),
        gate_(std::move(gate)) {}

  std::string name() const override { return inner_->name(); }
  ProofSpec spec() const override { return inner_->spec(); }
  std::unique_ptr<Evaluator> make_evaluator(const FieldOps& f) const override {
    if (gate_.valid()) gate_.wait();
    {
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back(tag_);
    }
    return inner_->make_evaluator(f);
  }
  std::vector<u64> recover(const Poly& proof,
                           const FieldOps& f) const override {
    return inner_->recover(proof, f);
  }

 private:
  std::shared_ptr<const CamelotProblem> inner_;
  std::string tag_;
  std::shared_ptr<std::vector<std::string>> log_;
  std::shared_ptr<std::mutex> mu_;
  std::shared_future<void> gate_;
};

TEST(ProofService, BoundedQueueRejectsOverload) {
  ProofService service({.num_workers = 1, .max_pending_jobs = 2});
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
                           const FieldOps& f) const override {
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
  EXPECT_EQ(stats.expired_queued + stats.cancelled_inflight, 1u);
  EXPECT_EQ(stats.completed, 3u);

  // A generous deadline does not interfere with completion.
  SubmitOptions relaxed;
  relaxed.deadline = std::chrono::minutes(10);
  RunReport fine = service.submit(problems[3], cfg, nullptr, relaxed).get();
  EXPECT_EQ(fine.status, JobStatus::kOk);
  EXPECT_TRUE(fine.success);
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
                           const FieldOps& f) const override {
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
  const ProofService::Stats stats = service.stats();
  EXPECT_EQ(stats.expired_queued + stats.cancelled_inflight, 1u);
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
  // Hold the single worker in a blocker until both probes sit queued
  // together.
  std::promise<void> open;
  const std::shared_future<void> gate = open.get_future().share();
  std::vector<std::future<RunReport>> blockers;
  for (int i = 0; i < 3; ++i) {
    blockers.push_back(service.submit(
        std::make_shared<TaggedProblem>(problems[0], "blocker", log, mu, gate),
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
  open.set_value();
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

// The shape of the benchmark's OV service load: 16 OV 48x24 jobs on
// four forced primes, every second one losing 2% of its symbols and
// repairing them. Every answer must match brute force and no job may
// fail; nothing here is timed.
TEST(ProofService, ForcedFourPrimeOvJobsWithLossAllVerify) {
  constexpr std::size_t kProblems = 16;
  std::vector<std::shared_ptr<const CamelotProblem>> problems;
  std::vector<std::vector<u64>> wants;
  for (std::size_t i = 0; i < kProblems; ++i) {
    const BoolMatrix a = BoolMatrix::random(48, 24, 0.35, 100 + i);
    const BoolMatrix b = BoolMatrix::random(48, 24, 0.35, 200 + i);
    wants.push_back(count_orthogonal_brute(a, b));
    problems.push_back(std::make_shared<OrthogonalVectorsProblem>(a, b));
  }
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.redundancy = 2.0;
  cfg.num_primes = 4;
  cfg.repair_budget = 8;
  ProofService service({.num_workers = 3});

  std::vector<std::future<RunReport>> futures;
  for (std::size_t i = 0; i < 2 * kProblems; ++i) {
    SubmitOptions so;
    if (i % 2 == 1) {
      so.loss_rate = 0.02;
      so.loss_seed = 1000 + i;
    }
    futures.push_back(
        service.submit(problems[i % kProblems], cfg, nullptr, so));
  }
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const RunReport report = futures[i].get();
    const std::vector<u64>& want = wants[i % kProblems];
    ASSERT_EQ(report.status, JobStatus::kOk) << "job " << i;
    ASSERT_TRUE(report.success) << "job " << i;
    EXPECT_EQ(report.num_primes, 4u);
    ASSERT_EQ(report.answers.size(), want.size()) << "job " << i;
    for (std::size_t a = 0; a < want.size(); ++a) {
      EXPECT_EQ(report.answers[a], BigInt::from_u64(want[a]))
          << "job " << i << " answer " << a;
    }
  }
  EXPECT_EQ(service.stats().completed, 2 * kProblems);
}

}  // namespace
}  // namespace camelot
