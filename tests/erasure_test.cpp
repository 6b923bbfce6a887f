// Tests for the erasure transport and selective repair: LossPlan
// determinism, chunk-boundary independence of the delivered set,
// per-round re-seeding through reopen_for_repair, golden lossy-vs-
// lossless session agreement (same answers, residues and corrected
// symbols once repair converges), loss composed with byzantine
// corruption, and the bounded repair budget settling as a decode
// failure instead of a hang.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <set>

#include "apps/ov.hpp"
#include "core/erasure_stream.hpp"
#include "core/proof_session.hpp"
#include "core/symbol_stream.hpp"

namespace camelot {
namespace {

ClusterConfig small_config(std::size_t nodes = 4, double redundancy = 2.0) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.redundancy = redundancy;
  return cfg;
}

std::unique_ptr<CamelotProblem> make_problem() {
  return std::make_unique<OrthogonalVectorsProblem>(
      BoolMatrix::random(8, 5, 0.35, 11), BoolMatrix::random(8, 5, 0.35, 22));
}

StreamSpec spec_for(const PrimeField& f, std::span<const std::size_t> owners,
                    std::span<const u64> points, u64 seed = 42) {
  StreamSpec spec;
  spec.prime = f.modulus();
  spec.code_length = owners.size();
  spec.owners = owners;
  spec.points = points;
  spec.field = &f;
  spec.stream_seed = seed;
  return spec;
}

// Drains a stream into (position -> value), asserting no position is
// delivered twice.
std::map<std::size_t, u64> drain(SymbolStream& stream) {
  std::map<std::size_t, u64> got;
  while (auto chunk = stream.poll()) {
    for (std::size_t j = 0; j < chunk->symbols.size(); ++j) {
      const auto [it, fresh] =
          got.emplace(chunk->offset + j, chunk->symbols[j]);
      EXPECT_TRUE(fresh) << "position " << chunk->offset + j
                         << " delivered twice";
      (void)it;
    }
  }
  return got;
}

// ---- LossPlan ------------------------------------------------------------

TEST(LossPlan, DeterministicAndRateEdges) {
  const LossPlan a = LossPlan::make(256, 0.3, 99);
  const LossPlan b = LossPlan::make(256, 0.3, 99);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.drop_count, b.drop_count);
  EXPECT_GT(a.drop_count, 0u);
  EXPECT_LT(a.drop_count, 256u);

  const LossPlan none = LossPlan::make(256, 0.0, 99);
  EXPECT_EQ(none.drop_count, 0u);
  const LossPlan all = LossPlan::make(256, 1.0, 99);
  EXPECT_EQ(all.drop_count, 256u);

  const LossPlan other_seed = LossPlan::make(256, 0.3, 100);
  EXPECT_NE(a.dropped, other_seed.dropped);
}

// ---- ErasureStream mechanics ---------------------------------------------

TEST(ErasureStream, DeliveredSetIndependentOfChunkBoundaries) {
  PrimeField f(97);
  const std::size_t e = 64;
  std::vector<std::size_t> owners(e);
  std::vector<u64> points(e);
  for (std::size_t i = 0; i < e; ++i) {
    owners[i] = i / 16;
    points[i] = i + 1;
  }
  std::vector<u64> word(e);
  std::iota(word.begin(), word.end(), u64{5});

  ErasureStreamingChannel channel(LossSpec{0.4, 7});
  // One big push vs. many small pushes of the same word.
  auto one = channel.open(spec_for(f, owners, points));
  one->push({.offset = 0, .node = 0, .symbols = word});
  one->close();
  const auto got_one = drain(*one);
  EXPECT_TRUE(one->exhausted());

  auto many = channel.open(spec_for(f, owners, points));
  for (std::size_t lo = 0; lo < e; lo += 5) {
    const std::size_t hi = std::min(e, lo + 5);
    many->push({.offset = lo,
                .node = owners[lo],
                .symbols = std::vector<u64>(word.begin() + long(lo),
                                            word.begin() + long(hi))});
  }
  many->close();
  const auto got_many = drain(*many);

  EXPECT_EQ(got_one, got_many);
  EXPECT_GT(got_one.size(), 0u);
  EXPECT_LT(got_one.size(), e);  // rate 0.4 must drop something
  for (const auto& [pos, value] : got_one) {
    EXPECT_EQ(value, word[pos]);  // survivors are unmodified
  }
}

TEST(ErasureStream, RepairRoundsReseedTheLossSchedule) {
  PrimeField f(97);
  const std::size_t e = 96;
  std::vector<std::size_t> owners(e, 0);
  std::vector<u64> points(e);
  std::iota(points.begin(), points.end(), u64{1});
  std::vector<u64> word(e, 3);

  ErasureStreamingChannel channel(LossSpec{0.5, 21});
  auto stream = channel.open(spec_for(f, owners, points));
  stream->push({.offset = 0, .node = 0, .symbols = word});
  stream->close();
  std::set<std::size_t> have;
  for (const auto& [pos, value] : drain(*stream)) have.insert(pos);
  ASSERT_LT(have.size(), e);

  // Re-push everything still missing, round after round; the per-round
  // re-seed must let the set converge to complete.
  std::size_t round = 0;
  while (have.size() < e && round < 32) {
    ASSERT_TRUE(stream->reopen_for_repair(++round));
    for (std::size_t pos = 0; pos < e; ++pos) {
      if (have.count(pos)) continue;
      stream->push({.offset = pos, .node = 0, .symbols = {word[pos]}});
    }
    stream->close();
    for (const auto& [pos, value] : drain(*stream)) have.insert(pos);
  }
  EXPECT_EQ(have.size(), e) << "loss schedule never converged";
  EXPECT_GT(round, 0u);
}

// ---- Session-level selective repair --------------------------------------

TEST(ErasureSession, LossyRunMatchesLosslessAnswers) {
  auto problem = make_problem();
  ClusterConfig config = small_config();

  ProofSession clean(*problem, config);
  const RunReport lossless = clean.run_streaming(LosslessStreamingChannel());
  ASSERT_TRUE(lossless.success);

  ErasureStreamingChannel lossy(LossSpec{0.05, 1234});
  ProofSession session(*problem, config);
  const RunReport repaired = session.run_streaming(lossy);

  ASSERT_TRUE(repaired.success);
  EXPECT_EQ(repaired.answers, lossless.answers);
  std::size_t total_rounds = 0;
  for (std::size_t pi = 0; pi < repaired.per_prime.size(); ++pi) {
    const auto& lossy_pr = repaired.per_prime[pi];
    const auto& clean_pr = lossless.per_prime[pi];
    EXPECT_EQ(lossy_pr.prime, clean_pr.prime);
    EXPECT_EQ(lossy_pr.decode_status, clean_pr.decode_status);
    EXPECT_EQ(lossy_pr.verified, clean_pr.verified);
    // Repaired symbols carry the exact values the first delivery
    // would have, so the decode outcome is untouched by the weather.
    EXPECT_EQ(lossy_pr.answer_residues, clean_pr.answer_residues);
    EXPECT_EQ(lossy_pr.corrected_symbols, clean_pr.corrected_symbols);
    EXPECT_LE(lossy_pr.repair_rounds, config.repair_budget);
    total_rounds += lossy_pr.repair_rounds;
    EXPECT_EQ(clean_pr.repair_rounds, 0u);
    EXPECT_EQ(clean_pr.repaired_symbols, 0u);
  }
  EXPECT_GT(total_rounds, 0u) << "rate 0.05 should force some repair";
}

TEST(ErasureSession, LossyRunsAreBitIdenticalAcrossDrivers) {
  auto problem = make_problem();
  ClusterConfig config = small_config();
  config.num_threads = 3;

  ErasureStreamingChannel lossy(LossSpec{0.08, 777});
  ProofSession a(*problem, config);
  const RunReport threaded = a.run_streaming(lossy);

  // Same job through the sequential per-prime driver (the unit shard
  // workers run): everything deterministic must agree, including the
  // repair counters and per-node evaluator work.
  ClusterConfig sequential = config;
  sequential.num_threads = 1;
  ProofSession b(*problem, sequential);
  for (std::size_t pi = 0; pi < b.num_primes(); ++pi) {
    b.run_prime_streaming(pi, lossy);
  }
  const RunReport seq = b.report();

  ASSERT_EQ(threaded.success, seq.success);
  EXPECT_EQ(threaded.answers, seq.answers);
  ASSERT_EQ(threaded.per_prime.size(), seq.per_prime.size());
  for (std::size_t pi = 0; pi < threaded.per_prime.size(); ++pi) {
    EXPECT_EQ(threaded.per_prime[pi].answer_residues,
              seq.per_prime[pi].answer_residues);
    EXPECT_EQ(threaded.per_prime[pi].repair_rounds,
              seq.per_prime[pi].repair_rounds);
    EXPECT_EQ(threaded.per_prime[pi].repaired_symbols,
              seq.per_prime[pi].repaired_symbols);
  }
  ASSERT_EQ(threaded.node_stats.size(), seq.node_stats.size());
  for (std::size_t j = 0; j < threaded.node_stats.size(); ++j) {
    EXPECT_EQ(threaded.node_stats[j].symbols_computed,
              seq.node_stats[j].symbols_computed);
  }
}

TEST(ErasureSession, LossComposesWithCorruption) {
  auto problem = make_problem();
  ClusterConfig config = small_config(/*nodes=*/6, /*redundancy=*/2.0);

  // One corrupt node of six keeps the corrupted share (e/6 symbols)
  // inside the unique-decoding radius (~(d+1)/2 at redundancy 2).
  ByzantineAdversary adversary({4}, ByzantineStrategy::kColludingPolynomial,
                               515);
  AdversarialStreamingChannel dark(adversary);
  ProofSession corrupted_only(*problem, config);
  const RunReport baseline = corrupted_only.run_streaming(dark);
  ASSERT_TRUE(baseline.success);

  ErasureStreamingChannel stormy(LossSpec{0.05, 88}, &dark);
  ProofSession session(*problem, config);
  const RunReport stormy_report = session.run_streaming(stormy);

  ASSERT_TRUE(stormy_report.success);
  EXPECT_EQ(stormy_report.answers, baseline.answers);
  for (std::size_t pi = 0; pi < stormy_report.per_prime.size(); ++pi) {
    // The corruption plan is positional and fixed per stream, so the
    // traitor evidence survives the weather bit for bit.
    EXPECT_EQ(stormy_report.per_prime[pi].corrected_symbols,
              baseline.per_prime[pi].corrected_symbols);
    EXPECT_EQ(stormy_report.per_prime[pi].implicated_nodes,
              baseline.per_prime[pi].implicated_nodes);
  }
}

TEST(ErasureSession, TotalLossExhaustsBudgetAndFailsCleanly) {
  auto problem = make_problem();
  ClusterConfig config = small_config();
  config.repair_budget = 2;

  ErasureStreamingChannel blackout(LossSpec{1.0, 5});
  ProofSession session(*problem, config);
  const RunReport report = session.run_streaming(blackout);

  EXPECT_FALSE(report.success);
  EXPECT_TRUE(report.answers.empty());
  for (const auto& pr : report.per_prime) {
    EXPECT_EQ(pr.decode_status, DecodeStatus::kDecodeFailure);
    EXPECT_FALSE(pr.verified);
    EXPECT_EQ(pr.repair_rounds, config.repair_budget);
  }
}

TEST(ErasureSession, RepairCountersAreDeterministic) {
  auto problem = make_problem();
  ClusterConfig config = small_config();
  ErasureStreamingChannel lossy(LossSpec{0.1, 4321});

  ProofSession a(*problem, config);
  const RunReport first = a.run_streaming(lossy);
  ProofSession b(*problem, config);
  const RunReport second = b.run_streaming(lossy);

  ASSERT_EQ(first.per_prime.size(), second.per_prime.size());
  for (std::size_t pi = 0; pi < first.per_prime.size(); ++pi) {
    EXPECT_EQ(first.per_prime[pi].repair_rounds,
              second.per_prime[pi].repair_rounds);
    EXPECT_EQ(first.per_prime[pi].repaired_symbols,
              second.per_prime[pi].repaired_symbols);
  }
}

TEST(ErasureSession, BarrierTransportRefusesShortDelivery) {
  // The barrier stage is a one-chunk stream with no repair: a lossy
  // channel must throw rather than hand decode a partial word, and the
  // prime stays prepared for a re-transport on a better channel.
  auto problem = make_problem();
  ProofSession session(*problem, small_config());
  session.prepare_prime(0);
  ErasureStreamingChannel lossy(LossSpec{0.5, 17});
  EXPECT_THROW(session.transport_prime(0, lossy), std::logic_error);
  EXPECT_EQ(session.stage(0), SessionStage::kPrepared);

  session.transport_prime(0, LosslessStreamingChannel());
  EXPECT_EQ(session.received(0), session.sent(0));
}

}  // namespace
}  // namespace camelot
