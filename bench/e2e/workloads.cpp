#include "workloads.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "apps/ov.hpp"
#include "core/erasure_stream.hpp"
#include "core/proof_service.hpp"
#include "core/proof_session.hpp"
#include "core/rng.hpp"
#include "core/shard.hpp"
#include "count/clique_camelot.hpp"
#include "count/triangle_camelot.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"
#include "layers.hpp"

namespace camelot::e2e {

namespace {

// Cold set-ups per untraced run: at least kSetupReps, and more while
// they total under kSetupSeconds, so a short set-up's median rests on
// more than a moment of the host; setup_s is their median.
constexpr std::size_t kSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 15;
constexpr double kSetupSeconds = 1.5;
// Untraced runs time at least this many jobs, so the median has ten
// samples beyond it; ov-receive times enough for the 95th percentile.
constexpr std::size_t kMinJobs = 2 * kMinBeyond;
constexpr std::size_t kMinJobsP95 = 20 * kMinBeyond;
// Repair rounds a lossy prime may spend. At 2% loss a prime still
// misses a symbol after r rounds with probability about
// e * 0.02^(r+1): the library default of 3 fails about one prime in
// 3000 (a failed job every few runs), 8 never in practice.
constexpr std::size_t kRepairBudget = 8;

// Per-layer metrics only some workloads measure; the others report 0
// and mark them as not applying.
const std::vector<std::pair<const char*, const char*>> kPartialLayers = {
    {"service.wait_share_p50", "ratio"},
    {"service.queue_depth_high_water", "count"},
    {"service.plan_cache_hit_ratio", "ratio"},
    {"service.code_cache_hit_ratio", "ratio"},
    {"erasure.repair_rounds_per_job", "count"},
    {"erasure.repaired_share", "ratio"},
    {"shard.overhead_share", "ratio"},
    {"shard.bytes_per_job", "B"},
    {"shard.retried_primes", "count"},
};

// What every workload works with: its options, the span recorder of a
// traced run and the result it fills.
struct Run {
  const Options& opt;
  SpanRecorder& rec;
  RunResult& r;
};

using Check = std::function<bool(const RunReport&)>;

// Session evaluation threads: one per core, at most 4.
unsigned session_threads() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

u64 sub_seed(u64 seed, u64 tag) {
  return splitmix64(splitmix64(seed) ^ tag);
}

bool answers_match(const RunReport& rep, const std::vector<u64>& want) {
  if (!rep.success || rep.status != JobStatus::kOk ||
      rep.answers.size() != want.size()) {
    return false;
  }
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (rep.answers[i] != BigInt::from_u64(want[i])) return false;
  }
  return true;
}

std::string resolved_backend(FieldCache& fields, const ProofSession& s) {
  const std::size_t e = s.plan().code_length;
  const FieldOps ops = fields.ops(s.prime(0), 2 * e, s.config().backend);
  return backend_name(ops.backend());
}

class Deadline {
 public:
  explicit Deadline(double seconds) : t0_(Clock::now()), limit_(seconds) {}
  bool open() const { return seconds_since(t0_) < limit_; }
  double elapsed() const { return seconds_since(t0_); }

 private:
  Clock::time_point t0_;
  double limit_;
};

// Counts heap allocations between construction and stop().
class AllocWindow {
 public:
  AllocWindow() : start_(allocs_counted()) { set_alloc_counting(true); }
  std::uint64_t stop() {
    set_alloc_counting(false);
    return allocs_counted() - start_;
  }

 private:
  std::uint64_t start_;
};

bool more_setups(const Options& opt, const std::vector<double>& setup) {
  if (opt.trace) return setup.empty();
  double total = 0.0;
  for (double s : setup) total += s;
  return setup.size() < kSetupReps ||
         (total < kSetupSeconds && setup.size() < kMaxSetupReps);
}

// Back-to-back jobs. An untraced run spends its whole length on them
// and times at least kMinJobs; a traced run spends the first half,
// needs one and counts its heap allocations.
struct Timed {
  std::vector<double> latency;
  double elapsed = 0.0;
  std::uint64_t allocs = 0;
};

template <class Job>
Timed run_timed(const Options& opt, Job&& job,
                std::size_t untraced_min_jobs = kMinJobs) {
  Timed t;
  const std::size_t min_jobs = opt.trace ? 1 : untraced_min_jobs;
  std::optional<AllocWindow> allocs;
  if (opt.trace) allocs.emplace();
  const Deadline window(opt.trace ? opt.seconds / 2 : opt.seconds);
  while (window.open() || t.latency.size() < min_jobs) {
    const auto t0 = Clock::now();
    job();
    t.latency.push_back(seconds_since(t0));
  }
  t.elapsed = window.elapsed();
  if (allocs) t.allocs = allocs->stop();
  return t;
}

// Latency quantiles from raw client-side samples: p50, and p95 where
// ten samples lie beyond it.
void set_latency(RunResult& r, const std::vector<double>& latency) {
  const std::size_t n = latency.size();
  r.latency_samples = latency;
  const std::optional<double> p50 = quantile(latency, 0.50);
  if (!p50) {
    r.valid = false;
    r.invalid_reason = "too few jobs for a median with 10 samples beyond";
    return;
  }
  r.set("job_s_p50", *p50, "s", n);
  if (auto p95 = quantile(latency, 0.95)) r.set("job_s_p95", *p95, "s", n);
}

void set_setup(RunResult& r, const std::vector<double>& setup, bool kids) {
  r.setup_repetitions = setup.size();
  r.set("setup_s", median(setup), "s", setup.size());
  r.set("peak_rss_mb", peak_rss_mb(kids), "MB");
}

void set_untraced(RunResult& r, const Timed& t) {
  const std::size_t n = t.latency.size();
  set_latency(r, t.latency);
  r.set("jobs_per_s", ratio(double(n), t.elapsed), "1/s", n);
}

void set_allocs(RunResult& r, std::uint64_t allocs, std::size_t jobs) {
  const double per_job = ratio(double(allocs), double(jobs));
  r.set("arena.allocs_per_job", per_job, "count", jobs);
}

// Traced jobs for the second half of a traced run (at least one): a
// fresh session on the caches through the barrier stages over a
// lossless channel, then the layer pass. `untraced_job_s` is the
// reference for trace.overhead.
void decompose(Run& run, const CamelotProblem& problem,
               const ClusterConfig& cfg, const Caches& caches,
               const Check& check, double untraced_job_s) {
  const std::string name = run.opt.workload + ".job";
  LayerReport layers;
  const Deadline window(run.opt.seconds / 2);
  for (std::uint64_t job = 0; job == 0 || window.open(); ++job) {
    ProofSession s(problem, cfg, caches.fields, nullptr, caches.codes);
    const LosslessChannel lossless;
    JobLayers j = run_stages(s, true, lossless, &run.rec, job, name);
    run.r.count(check(j.report));
    run_layers(s, problem, caches, run.rec, job, j);
    run.r.count(j.agrees);
    layers.add(j);
  }
  layers.write(run.r, untraced_job_s);
}

// ---- clique6-session --------------------------------------------------------
// Theorem 1: 6-cliques of a 10-vertex graph with a planted 7-clique,
// Strassen decomposition (d = 7200, two primes), one ProofSession per
// job over a lossless streaming channel. The evaluator dominates and
// recover is second; a decode-only change should not show here.

void clique6_session(Run& run) {
  RunResult& r = run.r;
  const Graph g = planted_clique(10, 0.5, 7, run.opt.seed);
  const BigInt want = BigInt::from_u64(count_k_cliques_brute(g, 6));
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.redundancy = 2.0;
  cfg.num_threads = session_threads();

  std::unique_ptr<CliqueCountProblem> problem;
  Caches caches;
  const Check check = [&](const RunReport& rep) {
    return rep.success && rep.answers.size() == 1 &&
           problem->cliques_from_answer(rep.answers[0]) == want;
  };
  std::vector<double> setup;
  while (more_setups(run.opt, setup)) {
    const auto t0 = Clock::now();
    const TrilinearDecomposition strassen = strassen_decomposition();
    problem = std::make_unique<CliqueCountProblem>(g, 6, strassen);
    caches = Caches();
    ProofSession s(*problem, cfg, caches.fields, nullptr, caches.codes);
    r.count(check(s.run()));
    setup.push_back(seconds_since(t0));
    r.backend = resolved_backend(*caches.fields, s);
  }

  const CodeCache::Stats before = caches.codes->stats();
  const Timed t = run_timed(run.opt, [&] {
    ProofSession s(*problem, cfg, caches.fields, nullptr, caches.codes);
    r.count(check(s.run()));
  });
  if (!run.opt.trace) {
    set_untraced(r, t);
    set_setup(r, setup, false);
    return;
  }
  const CodeCache::Stats after = caches.codes->stats();
  const double hits = double(after.hits - before.hits);
  const double misses = double(after.misses - before.misses);
  const double hit_ratio = ratio(hits, hits + misses);
  r.set("service.code_cache_hit_ratio", hit_ratio, "ratio", t.latency.size());
  set_allocs(r, t.allocs, t.latency.size());
  decompose(run, *problem, cfg, caches, check, median(t.latency));
}

// ---- ov-receive -------------------------------------------------------------
// The honest receiver's path: OV n=128, t=32 (d=4064), redundancy 3,
// 8 nodes of which 6 and 7 broadcast random symbols. The codeword is
// prepared once in set-up; each operation transports it through a
// fresh adversary, decodes ~3k errors per prime on the half-GCD path,
// verifies and recovers. The evaluator does no work per operation, so
// this is where a decode change shows.

void ov_receive(Run& run) {
  RunResult& r = run.r;
  const u64 seed = run.opt.seed;
  const BoolMatrix a = BoolMatrix::random(128, 32, 0.35, sub_seed(seed, 1));
  const BoolMatrix b = BoolMatrix::random(128, 32, 0.35, sub_seed(seed, 2));
  const std::vector<u64> want = count_orthogonal_brute(a, b);
  const std::vector<std::size_t> corrupt = {6, 7};
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.redundancy = 3.0;
  cfg.num_threads = session_threads();

  std::unique_ptr<OrthogonalVectorsProblem> problem;
  Caches caches;
  std::unique_ptr<ProofSession> session;
  std::uint64_t op = 0;
  // One operation: transport through this operation's adversary, then
  // decode, verify and recover every prime; the answers must match and
  // exactly the corrupt nodes must be implicated.
  auto receive = [&](SpanRecorder* rec) {
    const u64 adversary_seed = sub_seed(seed, 1000 + op);
    const ByzantineAdversary adversary(corrupt, ByzantineStrategy::kRandom,
                                       adversary_seed);
    const AdversarialChannel channel(adversary);
    const std::string name = run.opt.workload + ".job";
    JobLayers j = run_stages(*session, false, channel, rec, op++, name);
    r.count(answers_match(j.report, want) &&
            j.report.implicated_nodes() == corrupt);
    return j;
  };

  std::vector<double> setup;
  double prepare_s = 0.0;
  while (more_setups(run.opt, setup)) {
    session.reset();  // it refers to the problem replaced below
    const auto t0 = Clock::now();
    problem = std::make_unique<OrthogonalVectorsProblem>(a, b);
    caches = Caches();
    session = std::make_unique<ProofSession>(*problem, cfg, caches.fields,
                                             nullptr, caches.codes);
    {
      Span span(run.opt.trace ? &run.rec : nullptr, "session.prepare", 0);
      const auto tp = Clock::now();
      session->prepare();
      prepare_s = seconds_since(tp);
    }
    receive(nullptr);
    setup.push_back(seconds_since(t0));
    r.backend = resolved_backend(*caches.fields, *session);
  }

  const Timed t = run_timed(
      run.opt, [&] { receive(nullptr); }, kMinJobsP95);
  if (!run.opt.trace) {
    set_untraced(r, t);
    set_setup(r, setup, false);
    return;
  }
  set_allocs(r, t.allocs, t.latency.size());
  LayerReport layers;
  const Deadline window(run.opt.seconds / 2);
  do {
    const std::uint64_t job = op;
    JobLayers j = receive(&run.rec);
    // Operations reuse the codeword prepared once in set-up; that one
    // prepare call stands for the stage.
    j.prepare_s = prepare_s;
    run_layers(*session, *problem, caches, run.rec, job, j);
    r.count(j.agrees);
    layers.add(j);
  } while (window.open());
  layers.write(r, median(t.latency));
}

// ---- ov-service -------------------------------------------------------------
// A ProofService serving 16 distinct OV 48x24 instances of one shape,
// so the plan and code caches hit. The pool has one worker per core
// but one (at most 3): the spare core keeps the open-loop generator on
// time. Phase A: closed loop, 4 jobs outstanding, a quarter of the
// run, for jobs_per_s. Phase B: open loop of seeded Poisson arrivals at
// 30 jobs/s for the rest, every second job with 2% symbol loss
// (selective repair), each job timed from its scheduled send time.

constexpr std::size_t kServiceProblems = 16;
constexpr double kArrivalRate = 30.0;
// Open-loop generator health. Jobs are timed from their due time, so a
// late send only adds to the measured latency; what a late generator
// hides is load. A run whose sends ran later than half the mean arrival
// gap at the 99th percentile bunched its arrivals and is invalid. Host
// interference alone pushed that percentile to 5 ms.
constexpr double kMaxLatenessP99 = 0.5 / kArrivalRate;

unsigned service_workers() {
  return std::clamp(std::thread::hardware_concurrency(), 2u, 4u) - 1;
}

struct ServiceRig {
  std::unique_ptr<ProofService> pool;
  std::vector<std::shared_ptr<const CamelotProblem>> problems;
  std::vector<std::vector<u64>> wants;
  ClusterConfig cfg;

  std::future<RunReport> submit(std::size_t idx, SubmitOptions so = {}) {
    return pool->submit(problems[idx], cfg, nullptr, so);
  }
  bool check(const RunReport& rep, std::size_t idx) const {
    return answers_match(rep, wants[idx]);
  }
};

bool settled(const std::future<RunReport>& f) {
  return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

// Keeps 4 jobs in flight, submitting the next problem as the oldest
// settles, until `seconds` have passed and `min_jobs` were sent;
// returns settled jobs per second.
double closed_loop(ServiceRig& svc, double seconds, std::size_t min_jobs,
                   RunResult& r) {
  std::deque<std::pair<std::future<RunReport>, std::size_t>> inflight;
  std::size_t sent = 0, done = 0;
  const Deadline window(seconds);
  auto submit = [&] {
    const std::size_t idx = sent++ % svc.problems.size();
    inflight.emplace_back(svc.submit(idx), idx);
  };
  for (int i = 0; i < 4; ++i) submit();
  while (!inflight.empty()) {
    auto [future, idx] = std::move(inflight.front());
    inflight.pop_front();
    r.count(svc.check(future.get(), idx));
    ++done;
    if (window.open() || sent < min_jobs) submit();
  }
  return ratio(double(done), window.elapsed());
}

struct OpenLoop {
  // Latency from the due time, and the problem, per settled job.
  std::vector<double> latency;
  std::vector<std::size_t> problem;
  // camelot_queue_depth, sampled on every collector pass.
  std::int64_t queue_depth_max = 0;
};

OpenLoop open_loop(ServiceRig& svc, double seconds, u64 seed, RunResult& r) {
  struct Sent {
    std::future<RunReport> future;
    std::size_t problem = 0;
    Clock::time_point due;
  };
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  std::vector<Clock::time_point> due;
  for (double t = 0.0;;) {
    const double u = double(splitmix64(seed + due.size()) >> 11) * 0x1p-53;
    t += -std::log1p(-u) / kArrivalRate;
    if (t >= seconds) break;
    due.push_back(start + std::chrono::nanoseconds(std::int64_t(t * 1e9)));
  }

  OpenLoop out;
  std::vector<double> lateness;  // written by the generator only
  std::mutex mu;
  std::vector<Sent> inbox;  // guarded by mu
  std::atomic<bool> generator_done{false};
  std::atomic<bool> generator_failed{false};

  // One thread sends on schedule; this thread collects.
  std::thread generator([&] {
    try {
      for (std::size_t i = 0; i < due.size(); ++i) {
        std::this_thread::sleep_until(due[i]);
        lateness.push_back(seconds_since(due[i]));
        SubmitOptions so;
        if (i % 2 == 1) {
          so.loss_rate = 0.02;
          so.loss_seed = sub_seed(seed, i);
        }
        const std::size_t idx = i % svc.problems.size();
        Sent sent{svc.submit(idx, so), idx, due[i]};
        std::lock_guard<std::mutex> lock(mu);
        inbox.push_back(std::move(sent));
      }
    } catch (...) {
      generator_failed.store(true);
    }
    generator_done.store(true);
  });

  const obs::Gauge& depth = svc.pool->metrics()->gauge("camelot_queue_depth");
  std::vector<Sent> outstanding;
  while (true) {
    const bool done = generator_done.load();
    {
      std::lock_guard<std::mutex> lock(mu);
      for (Sent& s : inbox) outstanding.push_back(std::move(s));
      inbox.clear();
    }
    out.queue_depth_max = std::max(out.queue_depth_max, depth.value());
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (!settled(it->future)) {
        ++it;
        continue;
      }
      out.latency.push_back(seconds_since(it->due));
      out.problem.push_back(it->problem);
      // A job whose future throws counts as failed.
      bool ok = false;
      try {
        ok = svc.check(it->future.get(), it->problem);
      } catch (...) {
      }
      r.count(ok);
      it = outstanding.erase(it);
    }
    if (done && outstanding.empty()) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  generator.join();
  if (generator_failed.load()) r.count(false);
  const double late = quantile(lateness, 0.99, 0).value_or(0.0);
  r.set("generator.lateness_s_p99", late, "s", lateness.size());
  if (late > kMaxLatenessP99) {
    r.valid = false;
    r.invalid_reason = "open-loop generator fell behind its schedule";
  }
  return out;
}

void ov_service(Run& run) {
  RunResult& r = run.r;
  const u64 seed = run.opt.seed;
  ServiceRig svc;
  std::vector<BoolMatrix> as, bs;
  for (std::size_t i = 0; i < kServiceProblems; ++i) {
    as.push_back(BoolMatrix::random(48, 24, 0.35, sub_seed(seed, 10 + i)));
    bs.push_back(BoolMatrix::random(48, 24, 0.35, sub_seed(seed, 50 + i)));
    svc.wants.push_back(count_orthogonal_brute(as.back(), bs.back()));
  }
  svc.cfg.num_nodes = 8;
  svc.cfg.redundancy = 2.0;
  svc.cfg.num_primes = 4;
  svc.cfg.repair_budget = kRepairBudget;

  std::vector<double> setup;
  while (more_setups(run.opt, setup)) {
    svc.pool.reset();  // joins the previous pool outside the timer
    const auto t0 = Clock::now();
    svc.problems.clear();
    for (std::size_t p = 0; p < kServiceProblems; ++p) {
      auto problem = std::make_shared<OrthogonalVectorsProblem>(as[p], bs[p]);
      svc.problems.push_back(std::move(problem));
    }
    ProofServiceConfig pool;
    pool.num_workers = service_workers();
    svc.pool = std::make_unique<ProofService>(pool);
    closed_loop(svc, 0.0, kServiceProblems, r);  // every problem once
    setup.push_back(seconds_since(t0));
  }
  Caches caches{svc.pool->field_cache(), svc.pool->code_cache()};
  {
    ProofSession probe(*svc.problems[0], svc.cfg, caches.fields, nullptr,
                       caches.codes);
    r.backend = resolved_backend(*caches.fields, probe);
  }

  if (!run.opt.trace) {
    const double jobs_per_s = closed_loop(svc, run.opt.seconds / 4, 0, r);
    const double open_s = run.opt.seconds * 3 / 4;
    const OpenLoop ol = open_loop(svc, open_s, sub_seed(seed, 3), r);
    set_latency(r, ol.latency);
    r.set("jobs_per_s", jobs_per_s, "1/s");
    set_setup(r, setup, false);
    return;
  }

  // Each problem's time alone in the service (best of two): the base
  // the open-loop wait is measured against.
  std::vector<double> isolated(kServiceProblems, 1e300);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t p = 0; p < kServiceProblems; ++p) {
      const auto t0 = Clock::now();
      r.count(svc.check(svc.submit(p).get(), p));
      isolated[p] = std::min(isolated[p], seconds_since(t0));
    }
  }
  const ProofService::Stats before = svc.pool->stats();
  AllocWindow allocs;
  const double open_s = run.opt.seconds / 2;
  const OpenLoop ol = open_loop(svc, open_s, sub_seed(seed, 3), r);
  const std::uint64_t job_allocs = allocs.stop();
  const ProofService::Stats after = svc.pool->stats();
  const std::size_t n = ol.latency.size();

  std::vector<double> wait_share;
  for (std::size_t i = 0; i < n; ++i) {
    const double wait = ol.latency[i] - isolated[ol.problem[i]];
    wait_share.push_back(wait / ol.latency[i]);
  }
  if (auto w = quantile(wait_share, 0.5)) {
    r.set("service.wait_share_p50", *w, "ratio", n);
  }
  const double depth = double(ol.queue_depth_max);
  r.set("service.queue_depth_high_water", depth, "count", n);
  const double plan_hits = after.plan_cache_hits - before.plan_cache_hits;
  const double plan_misses = after.plan_cache_misses - before.plan_cache_misses;
  const double plan = ratio(plan_hits, plan_hits + plan_misses);
  r.set("service.plan_cache_hit_ratio", plan, "ratio", n);
  const double code_hits = after.code_cache.hits - before.code_cache.hits;
  const double code_misses = after.code_cache.misses - before.code_cache.misses;
  const double code = ratio(code_hits, code_hits + code_misses);
  r.set("service.code_cache_hit_ratio", code, "ratio", n);
  set_allocs(r, job_allocs, n);

  // Codeword symbols per job (every problem has the same shape).
  const RunReport shape = svc.submit(0).get();
  r.count(svc.check(shape, 0));
  const double symbols = double(n * shape.code_length * shape.num_primes);
  const double rounds = after.repair_rounds - before.repair_rounds;
  const double repaired = after.repaired_symbols - before.repaired_symbols;
  r.set("erasure.repair_rounds_per_job", ratio(rounds, n), "count", n);
  r.set("erasure.repaired_share", ratio(repaired, symbols), "ratio", n);

  // Decomposition on the service's caches, one thread per session as
  // the service runs them; the isolated service time is the untraced
  // reference.
  ClusterConfig one = svc.cfg;
  one.num_threads = 1;
  const Check check = [&](const RunReport& rep) {
    return svc.check(rep, 0);
  };
  decompose(run, *svc.problems[0], one, caches, check, median(isolated));
}

// ---- triangle-fleet ---------------------------------------------------------
// Theorem 3: triangles of G(128, 1200) across a ShardCoordinator with
// two single-threaded shardd processes, four primes, redundancy 2 and
// 2% symbol loss with selective repair; sequential jobs, a fresh loss
// seed per job. The only workload on the frame codec and the pipes.

void triangle_fleet(Run& run) {
  RunResult& r = run.r;
  const u64 seed = run.opt.seed;
  const std::string spec = "triangle:128:1200:" + std::to_string(seed);
  const u64 triangles = count_triangles_brute(gnm(128, 1200, seed));
  const BigInt want = BigInt::from_u64(triangles);
  ShardJob job;
  job.problem_spec = spec;
  job.config.num_nodes = 8;
  job.config.redundancy = 2.0;
  job.config.num_primes = 4;
  job.config.num_threads = 1;
  job.config.repair_budget = kRepairBudget;
  job.loss_rate = 0.02;
  const Check check = [&](const RunReport& rep) {
    return rep.success && rep.answers.size() == 1 &&
           TriangleCountProblem::triangles_from_answer(rep.answers[0]) == want;
  };

  ShardOptions shards;
  shards.num_shards = 2;
  shards.shardd_path = CAMELOT_E2E_SHARDD;
  std::unique_ptr<ShardCoordinator> fleet;
  std::uint64_t jobs_run = 0;
  auto run_job = [&] {
    job.loss_seed = sub_seed(seed, 100 + jobs_run++);
    return fleet->run(job);
  };

  std::vector<double> setup;
  while (more_setups(run.opt, setup)) {
    fleet.reset();  // shuts the previous shards down and reaps them
    const auto t0 = Clock::now();
    fleet = std::make_unique<ShardCoordinator>(shards);
    r.count(check(run_job()));
    setup.push_back(seconds_since(t0));
  }

  // In-process twin of the shards' pipeline, for the backend stamp,
  // the fleet-overhead prediction and the traced decomposition.
  const std::unique_ptr<CamelotProblem> local = make_problem_from_spec(spec);
  const Caches caches;
  {
    ProofSession probe(*local, job.config, caches.fields, nullptr,
                       caches.codes);
    r.backend = resolved_backend(*caches.fields, probe);
  }

  if (!run.opt.trace) {
    const Timed t = run_timed(run.opt, [&] { r.count(check(run_job())); });
    fleet.reset();  // reap the shards so their peak RSS is counted
    set_untraced(r, t);
    set_setup(r, setup, true);
    return;
  }

  // Each fleet job paired with its in-process prediction: per prime, a
  // run_prime_streaming on the same erasure channel. Shard s serves
  // the primes pi % 2 == s (round-robin over two live shards), so the
  // prediction is the larger of the two sums.
  const LosslessStreamingChannel lossless;
  auto predict = [&](u64 loss_seed) {
    ProofSession s(*local, job.config, caches.fields, nullptr, caches.codes);
    const LossSpec loss{job.loss_rate, loss_seed};
    const ErasureStreamingChannel channel(loss, &lossless);
    double shard_s[2] = {0.0, 0.0};
    for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
      const auto t0 = Clock::now();
      s.run_prime_streaming(pi, channel);
      shard_s[pi % 2] += seconds_since(t0);
    }
    r.count(s.complete());
    return std::max(shard_s[0], shard_s[1]);
  };
  predict(0);  // warms the in-process caches
  auto bandwidth = [&] {
    obs::Registry& m = fleet->metrics();
    return double(m.gauge("camelot_shard_bandwidth_bytes_shard0").value() +
                  m.gauge("camelot_shard_bandwidth_bytes_shard1").value());
  };

  std::vector<double> latency;
  double fleet_s = 0.0, predicted_s = 0.0, rounds = 0.0;
  double repaired = 0.0, symbols = 0.0;
  std::uint64_t job_allocs = 0;
  const double bytes_before = bandwidth();
  const std::size_t retried_before = fleet->retried_primes();
  const Deadline window(run.opt.seconds / 2);
  while (window.open() || latency.empty()) {
    AllocWindow allocs;
    const auto t0 = Clock::now();
    const RunReport rep = run_job();
    const double wall = seconds_since(t0);
    job_allocs += allocs.stop();
    r.count(check(rep));
    latency.push_back(wall);
    fleet_s += wall;
    predicted_s += predict(job.loss_seed);
    for (const PrimeRunReport& p : rep.per_prime) {
      rounds += double(p.repair_rounds);
      repaired += double(p.repaired_symbols);
    }
    symbols += double(rep.code_length * rep.num_primes);
  }
  const std::size_t n = latency.size();
  const double overhead = ratio(fleet_s - predicted_s, fleet_s);
  const double bytes = ratio(bandwidth() - bytes_before, double(n));
  const double retried = fleet->retried_primes() - retried_before;
  r.set("shard.overhead_share", overhead, "ratio", n);
  r.set("shard.bytes_per_job", bytes, "B", n);
  r.set("shard.retried_primes", retried, "count", n);
  r.set("erasure.repair_rounds_per_job", ratio(rounds, n), "count", n);
  r.set("erasure.repaired_share", ratio(repaired, symbols), "ratio", n);
  set_allocs(r, job_allocs, n);
  fleet.reset();

  // Barrier decomposition in-process, on a lossless channel: the
  // barrier transport has no erasure mode.
  decompose(run, *local, job.config, caches, check, median(latency));
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "clique6-session", "ov-receive", "ov-service", "triangle-fleet"};
  return kNames;
}

RunResult run_workload(const Options& opt, SpanRecorder& rec) {
  RunResult r;
  r.workload = opt.workload;
  r.seed = opt.seed;
  r.traced = opt.trace;
  r.run_seconds = opt.seconds;
  if (opt.trace) {
    for (const auto& [name, unit] : kPartialLayers) {
      r.set(name, 0.0, unit, 0, /*applies=*/false);
    }
  }
  Run run{opt, rec, r};
  if (opt.workload == "clique6-session") {
    clique6_session(run);
  } else if (opt.workload == "ov-receive") {
    ov_receive(run);
  } else if (opt.workload == "ov-service") {
    ov_service(run);
  } else if (opt.workload == "triangle-fleet") {
    triangle_fleet(run);
  } else {
    throw std::invalid_argument("unknown workload: " + opt.workload);
  }
  return r;
}

}  // namespace camelot::e2e
