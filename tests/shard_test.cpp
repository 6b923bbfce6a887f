// Tests for the sharded multi-process service: golden equality of the
// coordinator's assembled RunReport against a single-process
// ProofSession on the same job (lossless, lossy, and mixed
// loss+corruption), shard-death retry, the fleet observability rollup
// (merged scrape == element-wise sum of the per-process scrapes;
// deterministic counts match the single-process run), a worker found
// dead by the next job's submit write, the worker's
// rejection of untrusted wire lengths and field values, and the
// coordinator's treatment of a malformed worker frame or scrape as that
// worker's death.
//
// Requires the shardd binary; ctest points CAMELOT_SHARDD at the
// build-tree target. Suites skip (not fail) when it is missing so the
// test binary stays runnable by hand from anywhere.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
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

  // Each field must be a whole unsigned decimal token: trailing junk,
  // a sign, an empty field or an overflow is an error, not a silent
  // prefix parse.
  EXPECT_THROW(make_problem_from_spec("triangle:12x:30:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:8:4:0.3junk:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("triangle:-5:3:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("triangle::30:1"), std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("triangle:12:30:99999999999999999999"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:8:4:0.3.1:1"), std::invalid_argument);

  // Size caps, checked before anything is built: an n^2-bit adjacency
  // of ~125 GB, C(64, 10) clique subsets, 2016 chi rows padded to 2048
  // (R = 7^11), and an n whose n(n-1)/2 overflows 64 bits.
  EXPECT_THROW(make_problem_from_spec("triangle:1000000:1:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("clique:64:100:60:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("clique:64:2000:12:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("triangle:4294967297:1:1"),
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("triangle:10:46:1"),  // > C(10, 2)
               std::invalid_argument);
  EXPECT_THROW(make_problem_from_spec("ov:1048576:2:0.5:1"),
               std::invalid_argument);
  // Within every raw cap, but the built proof's degree bound is past
  // its cap: one edge on 1024 vertices leaves R = 7^10 outer points.
  EXPECT_THROW(make_problem_from_spec("triangle:1024:1:1"),
               std::invalid_argument);
  // The benchmark fleet's spec stays admitted.
  EXPECT_NO_THROW(make_problem_from_spec("triangle:128:1200:1"));
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

// A submit frame (for kProblemSpec by default), field by field in
// encode_submit order, with no primes assigned. The arguments are the
// fields the tests below corrupt; a corrupt-node count other than 0 is
// written with no entries behind it.
std::string submit_frame(double redundancy, unsigned char backend,
                         std::uint32_t corrupt_count, double loss_rate = 0.0,
                         const std::string& spec = kProblemSpec) {
  std::uint64_t redundancy_bits, loss_bits;
  std::memcpy(&redundancy_bits, &redundancy, sizeof(redundancy_bits));
  std::memcpy(&loss_bits, &loss_rate, sizeof(loss_bits));
  std::string p;
  put_le(p, static_cast<unsigned char>(ShardFrame::kSubmit), 1);
  put_le(p, spec.size(), 4);
  p += spec;
  put_le(p, 6, 8);                // num_nodes
  put_le(p, redundancy_bits, 8);  // redundancy
  put_le(p, 1, 4);                // num_threads
  put_le(p, 2, 8);                // verification_trials
  put_le(p, 0, 8);                // num_primes
  put_le(p, 7, 8);                // seed
  put_le(p, backend, 1);          // backend
  put_le(p, 1, 1);                // systematic_encode
  put_le(p, 3, 8);                // repair_budget
  put_le(p, loss_bits, 8);        // loss_rate (bit pattern)
  put_le(p, 0, 8);                // loss_seed
  put_le(p, 1, 1);                // adversary
  put_le(p, corrupt_count, 4);    // corrupt_nodes count
  if (corrupt_count == 0) {
    put_le(p, 0, 1);  // strategy
    put_le(p, 0, 8);  // adversary_seed
    put_le(p, 0, 4);  // prime_indices count
  }
  std::string frame;
  put_le(frame, p.size(), 4);
  return frame + p;
}

TEST(ShardProtocol, WorkerRejectsVectorCountBeyondFrame) {
  // A submit frame whose corrupt-node count claims 0xFFFFFFFF entries
  // with no bytes behind it: the worker must refuse before sizing a
  // vector from the count.
  unsigned char reply = 0;
  EXPECT_EQ(run_worker_on(submit_frame(2.0, 0, 0xFFFFFFFFu), &reply), 1);
  EXPECT_EQ(reply, static_cast<unsigned char>(ShardFrame::kError));
}

TEST(ShardProtocol, WorkerRejectsNanRedundancy) {
  // NaN passes a plain `< 1` test; the session must refuse it before
  // it reaches the code-length arithmetic.
  unsigned char reply = 0;
  EXPECT_EQ(run_worker_on(submit_frame(std::nan(""), 0, 0), &reply), 1);
  EXPECT_EQ(reply, static_cast<unsigned char>(ShardFrame::kError));
}

TEST(ShardProtocol, WorkerRejectsNanLossRate) {
  // NaN fails every comparison, so a `rate > 0` gate would run the
  // job as lossless; the worker must refuse it instead.
  unsigned char reply = 0;
  EXPECT_EQ(run_worker_on(submit_frame(2.0, 0, 0, std::nan("")), &reply), 1);
  EXPECT_EQ(reply, static_cast<unsigned char>(ShardFrame::kError));
}

TEST(ShardProtocol, WorkerRejectsOversizedProblemSpec) {
  // A well-formed submit whose spec pads 2016 chi rows to R = 7^11:
  // the worker must answer kError from the spec caps, before building.
  const std::string frame = submit_frame(2.0, 0, 0, 0.0, "clique:64:2000:12:1");
  unsigned char reply = 0;
  EXPECT_EQ(run_worker_on(frame, &reply), 1);
  EXPECT_EQ(reply, static_cast<unsigned char>(ShardFrame::kError));
}

TEST(ShardProtocol, WorkerRejectsOutOfEnumBackendByte) {
  unsigned char reply = 0;
  EXPECT_EQ(run_worker_on(submit_frame(2.0, 0xFF, 0), &reply), 1);
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

// ---- Malformed worker frames ---------------------------------------------

// A worker stand-in: of the two workers a 2-shard fleet spawns, the
// first to take a mkdir lock writes `bad_frame` to the coordinator and
// then hangs (so only a kill can reap it); the other execs the real
// shardd. Files live in a fresh temporary directory, removed on
// destruction.
class BadFrameWorker {
 public:
  explicit BadFrameWorker(const std::string& bad_frame) {
    std::string tmpl = ::testing::TempDir() + "camelot_bad_shard_XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) return;
    dir_ = tmpl;
    std::ofstream(dir_ + "/frame.bin", std::ios::binary) << bad_frame;
    const char* real = std::getenv("CAMELOT_SHARDD");
    const std::string shardd = real && *real ? real : "./shardd";
    std::ofstream(script())
        << "#!/bin/sh\nif mkdir '" << dir_ << "/lock' 2>/dev/null; then\n"
        << "  cat '" << dir_ << "/frame.bin'\n  exec sleep 30\nfi\n"
        << "exec '" << shardd << "' \"$@\"\n";
    ::chmod(script().c_str(), 0755);
  }
  ~BadFrameWorker() {
    if (dir_.empty()) return;
    ::unlink(script().c_str());
    ::unlink((dir_ + "/frame.bin").c_str());
    ::rmdir((dir_ + "/lock").c_str());
    ::rmdir(dir_.c_str());
  }
  bool ok() const { return !dir_.empty(); }
  std::string script() const { return dir_ + "/shardd.sh"; }

 private:
  std::string dir_;
};

class ShardMalformedFrame : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardMalformedFrame, WorkerDiesAndItsPrimesRetry) {
  REQUIRE_SHARDD();
  const ShardJob job = base_job();
  const RunReport single = run_single_process(job);
  ASSERT_TRUE(single.success);

  const BadFrameWorker worker(GetParam());
  ASSERT_TRUE(worker.ok());
  ShardOptions options;
  options.num_shards = 2;
  options.shardd_path = worker.script();
  ShardCoordinator fleet(options);
  const RunReport sharded = fleet.run(job);

  // The broken worker died like a crashed one: its primes re-ran on
  // the survivor and the assembled report is still bit-identical.
  expect_reports_equal(sharded, single);
  EXPECT_EQ(fleet.live_shards(), 1u);
  EXPECT_GT(fleet.retried_primes(), 0u);
}

std::string framed(const std::string& payload) {
  std::string out;
  put_le(out, payload.size(), 4);
  return out + payload;
}

// A complete kPrimeReport for prime 0 whose decode-status byte names
// no DecodeStatus.
std::string report_with_bad_status() {
  std::string p;
  put_le(p, static_cast<unsigned char>(ShardFrame::kPrimeReport), 1);
  put_le(p, 0, 8);     // prime index
  put_le(p, 17, 8);    // prime
  put_le(p, 0xFF, 1);  // decode status
  put_le(p, 1, 1);     // verified
  put_le(p, 0, 4);     // corrected_symbols count
  put_le(p, 0, 4);     // implicated_nodes count
  for (int i = 0; i < 4; ++i) put_le(p, 0, 8);  // stage counters
  put_le(p, 0, 4);     // answer_residues count
  put_le(p, 0, 4);     // node-stats delta count
  return framed(p);
}

INSTANTIATE_TEST_SUITE_P(
    BadFrames, ShardMalformedFrame,
    ::testing::Values(
        // Unknown tag.
        framed(std::string(1, '\xff')),
        // kPrimeReport cut short inside its prime index.
        framed(std::string("\x02\x00\x00", 3)),
        // Length header beyond the frame cap.
        std::string("\xff\xff\xff\xff", 4),
        report_with_bad_status()));

// A worker stand-in: the first of a fleet's workers to take a mkdir
// lock writes its pid to a file, then every worker execs the real
// shardd under the same pid, so a test can kill that one between jobs.
class PidRecordingWorker {
 public:
  PidRecordingWorker() {
    std::string tmpl = ::testing::TempDir() + "camelot_pid_shard_XXXXXX";
    if (::mkdtemp(tmpl.data()) == nullptr) return;
    dir_ = tmpl;
    const char* real = std::getenv("CAMELOT_SHARDD");
    const std::string shardd = real && *real ? real : "./shardd";
    std::ofstream(script())
        << "#!/bin/sh\nif mkdir '" << dir_ << "/lock' 2>/dev/null; then\n"
        << "  echo $$ > '" << pid_file() << "'\nfi\n"
        << "exec '" << shardd << "' \"$@\"\n";
    ::chmod(script().c_str(), 0755);
  }
  ~PidRecordingWorker() {
    if (dir_.empty()) return;
    ::unlink(script().c_str());
    ::unlink(pid_file().c_str());
    ::rmdir((dir_ + "/lock").c_str());
    ::rmdir(dir_.c_str());
  }
  bool ok() const { return !dir_.empty(); }
  std::string script() const { return dir_ + "/shardd.sh"; }
  pid_t recorded_pid() const {
    long pid = -1;
    std::ifstream(pid_file()) >> pid;
    return static_cast<pid_t>(pid);
  }

 private:
  std::string pid_file() const { return dir_ + "/worker.pid"; }
  std::string dir_;
};

TEST(ShardCoordinatorTest, WorkerDeadBetweenJobsRetriesAtDispatch) {
  REQUIRE_SHARDD();
  ShardJob job = base_job();
  job.problem_spec = "triangle:16:40:9";
  job.config.num_primes = 2;
  const RunReport single = run_single_process(job);
  ASSERT_TRUE(single.success);

  const PidRecordingWorker worker;
  ASSERT_TRUE(worker.ok());
  ShardOptions options;
  options.num_shards = 2;
  options.shardd_path = worker.script();
  ShardCoordinator fleet(options);
  expect_reports_equal(fleet.run(job), single);

  // One worker dies while the fleet is idle. Wait for its exit without
  // reaping it (the coordinator is its parent and reaps it), so the
  // next job's submit to it fails on the write instead of meeting EOF.
  const pid_t pid = worker.recorded_pid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  siginfo_t info{};
  ASSERT_EQ(::waitid(P_PID, static_cast<id_t>(pid), &info, WEXITED | WNOWAIT),
            0);
  EXPECT_EQ(fleet.live_shards(), 2u);

  // Its prime is re-dealt at once, not after the 30 s poll timeout.
  const auto t0 = std::chrono::steady_clock::now();
  const RunReport second = fleet.run(job);
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  expect_reports_equal(second, single);
  EXPECT_LT(elapsed, 10.0);
  EXPECT_EQ(fleet.live_shards(), 1u);
  EXPECT_EQ(counter_value(fleet.metrics().snapshot(),
                          "camelot_shard_deaths_total"),
            1u);
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
       {"camelot_stage_prepare_seconds", "camelot_stage_parity_seconds",
        "camelot_stage_decode_seconds", "camelot_stage_verify_seconds",
        "camelot_stage_recover_seconds"}) {
    const obs::Histogram::Snapshot* fleet_h = find_histogram(merged, name);
    const obs::Histogram::Snapshot* single_h =
        find_histogram(reference, name);
    ASSERT_NE(fleet_h, nullptr) << name;
    ASSERT_NE(single_h, nullptr) << name;
    EXPECT_EQ(fleet_h->count(), single_h->count()) << name;
  }
}

// A kObsSnapshot frame carrying `json`: a worker's answer to a scrape.
std::string obs_snapshot_frame(const std::string& json) {
  std::string p;
  put_le(p, static_cast<unsigned char>(ShardFrame::kObsSnapshot), 1);
  put_le(p, json.size(), 4);
  return framed(p + json);
}

class ShardMalformedScrape : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardMalformedScrape, WorkerDiesAndTheRollupGoesOn) {
  REQUIRE_SHARDD();
  // The broken worker's answer is already in the pipe when the scrape
  // asks for it.
  const BadFrameWorker worker(obs_snapshot_frame(GetParam()));
  ASSERT_TRUE(worker.ok());
  ShardOptions options;
  options.num_shards = 2;
  options.shardd_path = worker.script();
  ShardCoordinator fleet(options);

  obs::Registry::Snapshot merged;
  ASSERT_NO_THROW(merged = fleet.fleet_snapshot());
  EXPECT_EQ(fleet.live_shards(), 1u);
  EXPECT_EQ(counter_value(fleet.metrics().snapshot(),
                          "camelot_shard_deaths_total"),
            1u);

  const auto has_counter = [&](const std::string& name) {
    for (const auto& [n, v] : merged.counters) {
      if (n == name) return true;
    }
    return false;
  };
  // Nothing of the rejected scrape was merged...
  EXPECT_FALSE(has_counter("camelot_bad_scrape_total"));
  // ...while the survivor's scrape was, counter by counter.
  std::size_t live = 0;
  for (const std::string& scrape : fleet.last_shard_scrapes()) {
    if (scrape.empty()) continue;
    ++live;
    const obs::Registry::Snapshot survivor = obs::parse_json_snapshot(scrape);
    EXPECT_FALSE(survivor.counters.empty());
    for (const auto& [name, value] : survivor.counters) {
      EXPECT_TRUE(has_counter(name)) << name;
    }
  }
  EXPECT_EQ(live, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    BadScrapes, ShardMalformedScrape,
    ::testing::Values(
        // JSON cut short.
        std::string("{\"counters\": {\"camelot_bad_scrape_total\": 7}, "
                    "\"gauges\": "),
        // Parses, but the latency histogram has fewer buckets than the
        // coordinator's: it cannot merge.
        std::string("{\"counters\": {\"camelot_bad_scrape_total\": 7}, "
                    "\"gauges\": {}, \"histograms\": "
                    "{\"camelot_job_latency_seconds\": {\"bounds\": [1], "
                    "\"bins\": [0, 0], \"sum\": 0, \"count\": 0}}}")));

}  // namespace
}  // namespace camelot
