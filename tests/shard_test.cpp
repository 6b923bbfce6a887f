// Tests for the sharded multi-process service: golden equality of the
// coordinator's assembled RunReport against a single-process
// ProofSession on the same job (lossless, lossy, and mixed
// loss+corruption), shard-death retry, the fleet observability rollup
// (merged scrape == element-wise sum of the per-process scrapes;
// deterministic counts match the single-process run), and the
// worker's rejection of untrusted wire lengths.
//
// Requires the shardd binary; ctest points CAMELOT_SHARDD at the
// build-tree target. Suites skip (not fail) when it is missing so the
// test binary stays runnable by hand from anywhere.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/erasure_stream.hpp"
#include "core/proof_session.hpp"
#include "core/shard.hpp"

namespace camelot {
namespace {

constexpr const char* kProblemSpec = "triangle:12:26:9";

bool shardd_available() {
  const char* path = std::getenv("CAMELOT_SHARDD");
  if (path && *path) return ::access(path, X_OK) == 0;
  return ::access("./shardd", X_OK) == 0;
}

#define REQUIRE_SHARDD()                                              \
  do {                                                                \
    if (!shardd_available()) {                                        \
      GTEST_SKIP() << "shardd binary not found (set CAMELOT_SHARDD)"; \
    }                                                                 \
  } while (0)

ShardJob base_job() {
  ShardJob job;
  job.problem_spec = kProblemSpec;
  job.config.num_nodes = 6;
  job.config.redundancy = 2.0;
  job.config.num_threads = 1;
  // More primes than shards, so a 3-shard fleet has every worker busy
  // (non-zero bandwidth) and a crashed worker always leaves retryable
  // primes behind.
  job.config.num_primes = 5;
  return job;
}

// The single-process reference: same problem, same channel stack,
// same sequential per-prime driver the workers run.
RunReport run_single_process(const ShardJob& job,
                             std::shared_ptr<obs::Registry> registry = nullptr) {
  std::unique_ptr<CamelotProblem> problem =
      make_problem_from_spec(job.problem_spec);
  const ChannelStack channel(
      job.adversary ? std::make_shared<const ByzantineAdversary>(
                          job.corrupt_nodes, job.strategy, job.adversary_seed)
                    : nullptr,
      LossSpec{job.loss_rate, job.loss_seed});
  ProofSession session(*problem, job.config, nullptr, nullptr, nullptr,
                       std::move(registry));
  for (std::size_t pi = 0; pi < session.num_primes(); ++pi) {
    session.run_prime_streaming(pi, channel.top());
  }
  return session.report();
}

// Bit-identical up to timing: answers, per-prime reports (including
// the repair counters) and per-node evaluator work must all match.
void expect_reports_equal(const RunReport& a, const RunReport& b) {
  ASSERT_EQ(a.success, b.success);
  EXPECT_EQ(a.answers, b.answers);
  EXPECT_EQ(a.proof_symbols, b.proof_symbols);
  EXPECT_EQ(a.code_length, b.code_length);
  EXPECT_EQ(a.num_primes, b.num_primes);
  ASSERT_EQ(a.per_prime.size(), b.per_prime.size());
  for (std::size_t pi = 0; pi < a.per_prime.size(); ++pi) {
    EXPECT_EQ(a.per_prime[pi].prime, b.per_prime[pi].prime);
    EXPECT_EQ(a.per_prime[pi].decode_status, b.per_prime[pi].decode_status);
    EXPECT_EQ(a.per_prime[pi].verified, b.per_prime[pi].verified);
    EXPECT_EQ(a.per_prime[pi].answer_residues,
              b.per_prime[pi].answer_residues);
    EXPECT_EQ(a.per_prime[pi].corrected_symbols,
              b.per_prime[pi].corrected_symbols);
    EXPECT_EQ(a.per_prime[pi].implicated_nodes,
              b.per_prime[pi].implicated_nodes);
    EXPECT_EQ(a.per_prime[pi].repair_rounds, b.per_prime[pi].repair_rounds);
    EXPECT_EQ(a.per_prime[pi].repaired_symbols,
              b.per_prime[pi].repaired_symbols);
  }
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size());
  for (std::size_t j = 0; j < a.node_stats.size(); ++j) {
    EXPECT_EQ(a.node_stats[j].symbols_computed,
              b.node_stats[j].symbols_computed)
        << "node " << j;
  }
}

const obs::Histogram::Snapshot* find_histogram(
    const obs::Registry::Snapshot& snap, const std::string& name) {
  for (const auto& [n, h] : snap.histograms) {
    if (n == name) return &h;
  }
  return nullptr;
}

std::uint64_t counter_value(const obs::Registry::Snapshot& snap,
                            const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

// ---- Problem factory -----------------------------------------------------

TEST(ShardProtocol, ProblemFactoryParsesAndRejects) {
  auto problem = make_problem_from_spec("triangle:10:20:3");
  EXPECT_EQ(problem->name(), "count-triangles");
  EXPECT_THROW(make_problem_from_spec("triangle:0:0:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("hexagon:10:20:3"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("triangle:10"), std::invalid_argument);

  auto clique = make_problem_from_spec("clique:10:20:6:3");
  EXPECT_EQ(clique->name(), "count-k-cliques");
  // 6 | k is Theorem 1's divisibility requirement.
  EXPECT_THROW(make_problem_from_spec("clique:10:20:5:3"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("clique:10:20:0:3"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("clique:0:20:6:3"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("clique:10:20:6"),
               std::invalid_argument);

  auto ov = make_problem_from_spec("ov:8:5:0.5:11");
  EXPECT_EQ(ov->name(), "orthogonal-vectors");
  EXPECT_THROW(make_problem_from_spec("ov:0:5:0.5:11"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:8:0:0.5:11"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:8:5:1.5:11"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:8:5:0.5"), std::invalid_argument);
}

// ---- Untrusted wire lengths ----------------------------------------------

void put_le(std::string& out, std::uint64_t v, int bytes) {
  for (int i = 0; i < bytes; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// Feeds `input` to an in-process worker over a pipe and returns its
// exit code; `reply` receives the tag of its first output frame.
int run_worker_on(const std::string& input, unsigned char* reply) {
  int in[2];
  int out[2];
  if (::pipe(in) != 0 || ::pipe(out) != 0) return -1;
  if (::write(in[1], input.data(), input.size()) !=
      static_cast<ssize_t>(input.size())) {
    return -1;
  }
  ::close(in[1]);
  const int rc = run_shard_worker(in[0], out[1]);
  ::close(in[0]);
  ::close(out[1]);
  unsigned char frame[5] = {0, 0, 0, 0, 0};
  const ssize_t got = ::read(out[0], frame, sizeof(frame));
  ::close(out[0]);
  *reply = got == 5 ? frame[4] : 0;
  return rc;
}

TEST(ShardProtocol, WorkerRejectsVectorCountBeyondFrame) {
  // A submit frame whose corrupt-node count claims 0xFFFFFFFF entries
  // with no bytes behind it: the worker must refuse before sizing a
  // vector from the count.
  std::string p;
  put_le(p, static_cast<unsigned char>(ShardFrame::kSubmit), 1);
  const std::string spec = kProblemSpec;
  put_le(p, spec.size(), 4);
  p += spec;
  put_le(p, 6, 8);       // num_nodes
  put_le(p, 0, 8);       // redundancy (bit pattern)
  put_le(p, 1, 4);       // num_threads
  put_le(p, 2, 8);       // verification_trials
  put_le(p, 0, 8);       // num_primes
  put_le(p, 7, 8);       // seed
  put_le(p, 0, 1);       // backend
  put_le(p, 1, 1);       // systematic_encode
  put_le(p, 1, 1);       // use_arena
  put_le(p, 3, 8);       // repair_budget
  put_le(p, 0, 8);       // loss_rate (bit pattern)
  put_le(p, 0, 8);       // loss_seed
  put_le(p, 1, 1);       // adversary
  put_le(p, 0xFFFFFFFFu, 4);  // corrupt_nodes count, no entries follow
  std::string frame;
  put_le(frame, p.size(), 4);
  frame += p;

  unsigned char reply = 0;
  EXPECT_EQ(run_worker_on(frame, &reply), 1);
  EXPECT_EQ(reply, static_cast<unsigned char>(ShardFrame::kError));
}

TEST(ShardProtocol, WorkerRejectsOversizedFrameHeader) {
  // A frame header announcing 4 GiB: refused before any allocation.
  std::string frame;
  put_le(frame, 0xFFFFFFFFu, 4);
  unsigned char reply = 0;
  EXPECT_EQ(run_worker_on(frame, &reply), 1);
  EXPECT_EQ(reply, static_cast<unsigned char>(ShardFrame::kError));
}

// ---- Golden equality -----------------------------------------------------

TEST(ShardCoordinatorTest, LosslessMatchesSingleProcess) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  const RunReport single = run_single_process(job);
  ASSERT_TRUE(single.success);

  ShardOptions options;
  options.num_shards = 3;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  expect_reports_equal(sharded, single);
  EXPECT_EQ(fleet.retried_primes(), 0u);
}

TEST(ShardCoordinatorTest, MixedLossAndCorruptionMatchesSingleProcess) {
  REQUIRE_SHARDD();
  ShardJob job = base_job();
  job.loss_rate = 0.05;
  job.loss_seed = 99;
  job.adversary = true;
  // One corrupt node of six keeps the corrupted share (e/6 symbols)
  // inside the unique-decoding radius (~(d+1)/2 at redundancy 2).
  job.corrupt_nodes = {5};
  job.strategy = ByzantineStrategy::kColludingPolynomial;
  job.adversary_seed = 1337;

  const RunReport single = run_single_process(job);
  ASSERT_TRUE(single.success);
  std::size_t repair_rounds = 0;
  for (const auto& pr : single.per_prime) repair_rounds += pr.repair_rounds;
  EXPECT_GT(repair_rounds, 0u) << "loss rate should force selective repair";

  ShardOptions options;
  options.num_shards = 3;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  expect_reports_equal(sharded, single);
}

TEST(ShardCoordinatorTest, SurvivesWorkerCrashAndRetries) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  const RunReport single = run_single_process(job);

  ShardOptions options;
  options.num_shards = 3;
  options.crash_shard = 0;
  options.crash_after_primes = 1;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);

  // The dead worker's unfinished primes re-ran on survivors; the
  // assembled report is still bit-identical to the no-crash run.
  expect_reports_equal(sharded, single);
  EXPECT_EQ(fleet.live_shards(), 2u);
  EXPECT_EQ(counter_value(fleet.metrics().snapshot(),
                          "camelot_shard_deaths_total"),
            1u);
  // Five primes round-robined over three shards leave the crashed
  // worker (shard 0: primes 0 and 3) one unfinished prime to retry.
  EXPECT_GT(fleet.retried_primes(), 0u);
}

TEST(ShardCoordinatorTest, ReusableAcrossJobs) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  ShardOptions options;
  options.num_shards = 2;
  ShardCoordinator fleet(options);
  const RunReport first = fleet.run(job);
  const RunReport second = fleet.run(job);
  expect_reports_equal(first, second);
}

// ---- Fleet observability rollup ------------------------------------------

TEST(ShardFleetObs, RollupEqualsSumOfShardScrapes) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  ShardOptions options;
  options.num_shards = 3;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  ASSERT_TRUE(sharded.success);

  const obs::Registry::Snapshot coordinator = fleet.metrics().snapshot();
  const obs::Registry::Snapshot merged = fleet.fleet_snapshot();
  const std::vector<std::string>& scrapes = fleet.last_shard_scrapes();
  ASSERT_EQ(scrapes.size(), 3u);

  // Rebuild the rollup by hand from the raw per-shard JSON and the
  // coordinator's own scrape; the fleet snapshot must match it
  // metric by metric, bin by bin.
  obs::Registry::Snapshot expected = coordinator;
  std::size_t live = 0;
  for (const std::string& scrape : scrapes) {
    if (scrape.empty()) continue;
    ++live;
    obs::merge_snapshot(expected, obs::parse_json_snapshot(scrape));
  }
  ASSERT_EQ(live, 3u);

  ASSERT_EQ(merged.histograms.size(), expected.histograms.size());
  for (std::size_t i = 0; i < merged.histograms.size(); ++i) {
    EXPECT_EQ(merged.histograms[i].first, expected.histograms[i].first);
    EXPECT_EQ(merged.histograms[i].second.bins,
              expected.histograms[i].second.bins)
        << merged.histograms[i].first;
  }
  ASSERT_EQ(merged.counters.size(), expected.counters.size());
  for (std::size_t i = 0; i < merged.counters.size(); ++i) {
    EXPECT_EQ(merged.counters[i], expected.counters[i]);
  }

  // Per-shard bandwidth gauges exist and saw real traffic.
  for (std::size_t i = 0; i < 3; ++i) {
    bool found = false;
    for (const auto& [name, value] : merged.gauges) {
      if (name ==
          "camelot_shard_bandwidth_bytes_shard" + std::to_string(i)) {
        found = true;
        EXPECT_GT(value, 0);
      }
    }
    EXPECT_TRUE(found) << "missing bandwidth gauge for shard " << i;
  }

  // Workers settled every prime exactly once.
  EXPECT_EQ(counter_value(merged, "camelot_shard_primes_total"),
            sharded.num_primes);
}

TEST(ShardFleetObs, DeterministicCountsMatchSingleProcessScrape) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  auto registry = std::make_shared<obs::Registry>();
  const RunReport single = run_single_process(job, registry);
  ASSERT_TRUE(single.success);
  const obs::Registry::Snapshot reference = registry->snapshot();

  ShardOptions options;
  options.num_shards = 3;
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);
  expect_reports_equal(sharded, single);
  const obs::Registry::Snapshot merged = fleet.fleet_snapshot();

  // Stage observation *counts* are deterministic (one decode/verify/
  // recover per prime, one prepare span per node chunk); only the
  // latency values inside the bins vary. Summed across the fleet they
  // must equal the single-process counts.
  for (const char* name :
       {"camelot_stage_prepare_seconds", "camelot_stage_decode_seconds",
        "camelot_stage_verify_seconds", "camelot_stage_recover_seconds"}) {
    const obs::Histogram::Snapshot* fleet_h = find_histogram(merged, name);
    const obs::Histogram::Snapshot* single_h =
        find_histogram(reference, name);
    ASSERT_NE(fleet_h, nullptr) << name;
    ASSERT_NE(single_h, nullptr) << name;
    EXPECT_EQ(fleet_h->count(), single_h->count()) << name;
  }
}

}  // namespace
}  // namespace camelot
