// Tests for the streaming transport layer: SymbolStream mechanics,
// corruption-plan equivalence, golden agreement between the overlapped
// pipeline and the composed whole-session stages (bit-for-bit
// RunReports on all three backends), adversarial streams under
// concurrent load, and rate-limited (congested-clique style) delivery.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <memory>
#include <numeric>
#include <random>

#include "apps/conv3sum.hpp"
#include "apps/csp2.hpp"
#include "apps/hamming.hpp"
#include "apps/ov.hpp"
#include "core/proof_session.hpp"
#include "core/rng.hpp"
#include "core/symbol_stream.hpp"
#include "field/primes.hpp"
#include "linalg/tensor.hpp"
#include "rs/code_cache.hpp"
#include "rs/gao.hpp"

namespace camelot {
namespace {

ClusterConfig small_config(std::size_t nodes = 4, double redundancy = 1.5) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.redundancy = redundancy;
  return cfg;
}

std::unique_ptr<CamelotProblem> make_app_problem(int which) {
  switch (which) {
    case 0:
      return std::make_unique<OrthogonalVectorsProblem>(
          BoolMatrix::random(8, 5, 0.35, 11),
          BoolMatrix::random(8, 5, 0.35, 22));
    case 1:
      return std::make_unique<HammingDistributionProblem>(
          BoolMatrix::random(6, 4, 0.4, 33),
          BoolMatrix::random(6, 4, 0.4, 44));
    case 2:
      return std::make_unique<Conv3SumProblem>(
          std::vector<u64>{3, 1, 4, 1, 5, 9, 2, 6}, 6u);
    default:
      return std::make_unique<Csp2Problem>(
          Csp2Instance::random(6, 2, 4, 0.5, 77), strassen_decomposition());
  }
}

// Strict structural equality: answers, per-prime decode/verify state,
// corrected symbols, implicated nodes and residues must all match.
void expect_reports_equal(const RunReport& a, const RunReport& b) {
  ASSERT_EQ(a.success, b.success);
  ASSERT_EQ(a.answers.size(), b.answers.size());
  for (std::size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i], b.answers[i]) << "answer " << i;
  }
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
  }
  ASSERT_EQ(a.node_stats.size(), b.node_stats.size());
  for (std::size_t j = 0; j < a.node_stats.size(); ++j) {
    EXPECT_EQ(a.node_stats[j].symbols_computed,
              b.node_stats[j].symbols_computed);
  }
}

// The barrier staging: every prime through one stage before the next.
RunReport run_staged(ProofSession& s,
                     const ByzantineAdversary* adversary = nullptr) {
  return s.prepare().transport(adversary).decode().verify().recover().report();
}

// ---- SymbolStream mechanics ---------------------------------------------

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

TEST(SymbolStream, LosslessPushPollRoundTrip) {
  PrimeField f(97);
  std::vector<std::size_t> owners(10, 0);
  std::vector<u64> points(10);
  std::iota(points.begin(), points.end(), u64{1});
  auto stream = LosslessStreamingChannel().open(spec_for(f, owners, points));

  EXPECT_FALSE(stream->poll().has_value());
  EXPECT_FALSE(stream->exhausted());
  stream->push({.offset = 4, .node = 1, .symbols = {40, 50, 60}});
  stream->push({.offset = 0, .node = 0, .symbols = {1, 2}});
  auto first = stream->poll();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->offset, 4u);
  EXPECT_EQ(first->symbols, (std::vector<u64>{40, 50, 60}));
  stream->close();
  EXPECT_FALSE(stream->exhausted());  // one chunk still buffered
  auto second = stream->poll();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->offset, 0u);
  EXPECT_TRUE(stream->exhausted());
  EXPECT_FALSE(stream->poll().has_value());
  EXPECT_THROW(stream->push({.offset = 6, .node = 2, .symbols = {1}}),
               std::logic_error);
}

TEST(SymbolStream, RejectsOutOfRangeChunk) {
  PrimeField f(97);
  std::vector<std::size_t> owners(4, 0);
  std::vector<u64> points = {1, 2, 3, 4};
  auto stream = LosslessStreamingChannel().open(spec_for(f, owners, points));
  EXPECT_THROW(stream->push({.offset = 3, .node = 0, .symbols = {7, 7}}),
               std::logic_error);
}

TEST(SymbolStream, RejectsChunkWhoseEndWrapsAround) {
  // offset + size would wrap to a small value; the range check must
  // not be fooled, on the lossless and on the adversarial stream.
  PrimeField f(97);
  std::vector<std::size_t> owners(10, 0);
  std::vector<u64> points(10);
  std::iota(points.begin(), points.end(), u64{1});
  const ByzantineAdversary adversary({0}, ByzantineStrategy::kRandom, 3);
  const LosslessStreamingChannel lossless;
  const AdversarialStreamingChannel adversarial(adversary);
  for (const StreamingSymbolChannel* channel :
       {static_cast<const StreamingSymbolChannel*>(&lossless),
        static_cast<const StreamingSymbolChannel*>(&adversarial)}) {
    auto stream = channel->open(spec_for(f, owners, points));
    for (std::size_t offset : {SIZE_MAX, std::size_t{10}}) {
      EXPECT_THROW(stream->push({.offset = offset, .node = 0, .symbols = {5}}),
                   std::logic_error)
          << "offset " << offset;
    }
    stream->close();
    EXPECT_FALSE(stream->poll().has_value());
  }
}

TEST(SymbolStream, RateLimitedSplitsChunksAcrossPolls) {
  PrimeField f(97);
  std::vector<std::size_t> owners(8, 0);
  std::vector<u64> points(8);
  std::iota(points.begin(), points.end(), u64{1});
  RateLimitedStreamingChannel channel(/*symbols_per_poll=*/3);
  auto stream = channel.open(spec_for(f, owners, points));
  stream->push({.offset = 0, .node = 0, .symbols = {1, 2, 3, 4, 5, 6, 7, 8}});
  stream->close();

  std::vector<u64> got(8, 0);
  std::size_t polls = 0;
  while (!stream->exhausted()) {
    auto c = stream->poll();
    ASSERT_TRUE(c.has_value());
    EXPECT_LE(c->symbols.size(), 3u);
    for (std::size_t j = 0; j < c->symbols.size(); ++j) {
      got[c->offset + j] = c->symbols[j];
    }
    ++polls;
  }
  EXPECT_EQ(polls, 3u);  // 3 + 3 + 2
  EXPECT_EQ(got, (std::vector<u64>{1, 2, 3, 4, 5, 6, 7, 8}));
}

// The streaming adversary must corrupt chunk-by-chunk exactly as its
// plan corrupts the whole word at once, independent of chunk arrival
// order.
TEST(SymbolStream, AdversarialStreamMatchesBarrierCorruption) {
  PrimeField f(101);
  const std::size_t e = 24;
  std::vector<std::size_t> owners(e);
  for (std::size_t i = 0; i < e; ++i) owners[i] = i / 6;  // 4 nodes
  std::vector<u64> points(e);
  std::iota(points.begin(), points.end(), u64{1});
  std::vector<u64> word(e);
  std::mt19937_64 rng(7);
  for (u64& v : word) v = rng() % 101;

  for (ByzantineStrategy strategy :
       {ByzantineStrategy::kSilent, ByzantineStrategy::kRandom,
        ByzantineStrategy::kOffByOne,
        ByzantineStrategy::kColludingPolynomial}) {
    ByzantineAdversary adversary({1, 3}, strategy, 999);
    const u64 stream_seed = derive_stream(5, 101, PipelineStage::kTransport);

    std::vector<u64> barrier = word;
    adversary.make_plan(owners, points, f, stream_seed).apply(barrier, 0, f);

    AdversarialStreamingChannel channel(adversary);
    auto stream =
        channel.open(spec_for(f, owners, points, stream_seed));
    // Push node chunks in scrambled order, middle chunk split in two.
    stream->push({.offset = 18, .node = 3,
                  .symbols = {word.begin() + 18, word.end()}});
    stream->push({.offset = 6, .node = 1,
                  .symbols = {word.begin() + 6, word.begin() + 9}});
    stream->push({.offset = 9, .node = 1,
                  .symbols = {word.begin() + 9, word.begin() + 12}});
    stream->push({.offset = 0, .node = 0,
                  .symbols = {word.begin(), word.begin() + 6}});
    stream->push({.offset = 12, .node = 2,
                  .symbols = {word.begin() + 12, word.begin() + 18}});
    stream->close();

    std::vector<u64> streamed(e, 0);
    while (auto c = stream->poll()) {
      for (std::size_t j = 0; j < c->symbols.size(); ++j) {
        streamed[c->offset + j] = c->symbols[j];
      }
    }
    EXPECT_EQ(streamed, barrier)
        << "strategy " << static_cast<int>(strategy);
  }
}

// A plan indexes its positions directly, so it must refuse a chunk
// that leaves them, however the offset is chosen: offset + size may
// wrap around to a small value.
TEST(CorruptionPlan, RejectsChunkOutsidePlan) {
  PrimeField f(97);
  const std::size_t e = 10;
  std::vector<std::size_t> owners(e, 0);
  std::vector<u64> points(e);
  std::iota(points.begin(), points.end(), u64{1});
  const ByzantineAdversary adversary({0}, ByzantineStrategy::kRandom, 3);
  const CorruptionPlan plan = adversary.make_plan(owners, points, f);

  std::vector<u64> one = {5};
  for (std::size_t offset : {SIZE_MAX, SIZE_MAX - 1, e}) {
    EXPECT_THROW(plan.apply(one, offset, f), std::out_of_range)
        << "offset " << offset;
  }
  std::vector<u64> two = {5, 6};
  EXPECT_THROW(plan.apply(two, e - 1, f), std::out_of_range);
  EXPECT_EQ(two, (std::vector<u64>{5, 6}));

  std::vector<u64> whole(e, 1);
  EXPECT_NO_THROW(plan.apply(whole, 0, f));
  std::vector<u64> none;
  EXPECT_NO_THROW(plan.apply(none, e, f));
}

// ---- StreamingGaoDecoder -------------------------------------------------

TEST(StreamingGaoDecoder, OutOfOrderAbsorbMatchesOneShotDecode) {
  // The length-24 code needs primitive 32nd roots of unity.
  const u64 q = find_ntt_prime(409, 5);
  FieldOps ops{PrimeField(q)};
  ReedSolomonCode code(ops, /*degree_bound=*/7, /*length=*/24);
  Poly message;
  message.c = {5, 1, 0, 3, 9, 2, 7, 4};
  std::vector<u64> word = code.encode(message);
  word[3] = (word[3] + 11) % q;  // one corrupted symbol
  word[17] = (word[17] + 23) % q;

  const GaoResult oneshot = gao_decode(code, word);
  ASSERT_EQ(oneshot.status, DecodeStatus::kOk);

  StreamingGaoDecoder decoder(code);
  EXPECT_FALSE(decoder.ready());
  EXPECT_THROW(decoder.finish(), std::logic_error);
  decoder.absorb(16, std::span<const u64>(word.data() + 16, 8));
  decoder.absorb(0, std::span<const u64>(word.data(), 8));
  decoder.absorb(8, std::span<const u64>(word.data() + 8, 8));
  EXPECT_TRUE(decoder.ready());
  EXPECT_THROW(decoder.absorb(0, std::span<const u64>(word.data(), 1)),
               std::logic_error);

  const GaoResult streamed = decoder.finish();
  EXPECT_EQ(streamed.status, oneshot.status);
  EXPECT_EQ(streamed.message.c, oneshot.message.c);
  EXPECT_EQ(streamed.error_locations, oneshot.error_locations);
  EXPECT_EQ(streamed.corrected, oneshot.corrected);
}

TEST(StreamingGaoDecoder, RejectsChunkWhoseEndWrapsAround) {
  const u64 q = find_ntt_prime(409, 5);
  ReedSolomonCode code(PrimeField(q), /*degree_bound=*/3, /*length=*/10);
  StreamingGaoDecoder decoder(code);
  const std::vector<u64> one = {5};
  EXPECT_THROW(decoder.absorb(SIZE_MAX, one), std::logic_error);
  EXPECT_THROW(decoder.absorb(10, one), std::logic_error);
  EXPECT_EQ(decoder.absorbed(), 0u);
  EXPECT_EQ(decoder.missing_runs(),
            (std::vector<std::pair<std::size_t, std::size_t>>{{0, 10}}));
}

// ---- Streaming pipeline vs composed stages -------------------------------

class StreamingGolden : public ::testing::TestWithParam<int> {};

TEST_P(StreamingGolden, StreamingMatchesBarrierOnAllBackends) {
  const auto problem = make_app_problem(GetParam());
  for (FieldBackend backend :
       {FieldBackend::kMontgomery, FieldBackend::kPrimeDivision,
        FieldBackend::kMontgomeryAvx2}) {
    ClusterConfig cfg = small_config();
    cfg.backend = backend;
    ProofSession barrier_session(*problem, cfg);
    const RunReport barrier = run_staged(barrier_session);
    ASSERT_TRUE(barrier.success);

    ProofSession streaming_session(*problem, cfg);
    const RunReport streamed =
        streaming_session.run_streaming(LosslessStreamingChannel());
    expect_reports_equal(barrier, streamed);
  }
}

TEST_P(StreamingGolden, AdversarialStreamingMatchesBarrier) {
  const auto problem = make_app_problem(GetParam());
  ClusterConfig cfg = small_config(/*nodes=*/6, /*redundancy=*/3.0);
  cfg.num_primes = 2;
  ByzantineAdversary adversary({1, 4}, ByzantineStrategy::kRandom, 321);

  ProofSession barrier_session(*problem, cfg);
  const RunReport barrier = run_staged(barrier_session, &adversary);
  ASSERT_TRUE(barrier.success);

  ProofSession streaming_session(*problem, cfg);
  const RunReport streamed =
      streaming_session.run_streaming(AdversarialStreamingChannel(adversary));
  expect_reports_equal(barrier, streamed);
  EXPECT_EQ(streaming_session.implicated_nodes(),
            (std::vector<std::size_t>{1, 4}));
}

INSTANTIATE_TEST_SUITE_P(Apps, StreamingGolden, ::testing::Values(0, 1, 2, 3));

TEST(StreamingPipeline, AdversarialChannelUnderConcurrentLoad) {
  // Many evaluation threads racing over several primes' chunks while
  // Morgana corrupts in flight: the outcome must equal the serial run
  // bit for bit, on every repetition.
  const auto problem = make_app_problem(0);
  ClusterConfig cfg = small_config(/*nodes=*/8, /*redundancy=*/3.0);
  cfg.num_primes = 3;
  ByzantineAdversary adversary({2, 5}, ByzantineStrategy::kColludingPolynomial,
                               777);
  AdversarialStreamingChannel channel(adversary);

  cfg.num_threads = 1;
  ProofSession serial(*problem, cfg);
  const RunReport reference = serial.run_streaming(channel);
  ASSERT_TRUE(reference.success);
  EXPECT_EQ(serial.implicated_nodes(), (std::vector<std::size_t>{2, 5}));

  cfg.num_threads = 8;
  for (int rep = 0; rep < 5; ++rep) {
    ProofSession racy(*problem, cfg);
    expect_reports_equal(reference, racy.run_streaming(channel));
  }
}

TEST(StreamingPipeline, RateLimitedChannelDeliversEverything) {
  // A congested broadcast (few symbols per round) changes only the
  // schedule, never the result — with and without corruption inside.
  const auto problem = make_app_problem(2);
  ClusterConfig cfg = small_config(/*nodes=*/4, /*redundancy=*/2.0);
  cfg.num_threads = 3;

  ProofSession plain(*problem, cfg);
  const RunReport reference = plain.run_streaming(LosslessStreamingChannel());
  ASSERT_TRUE(reference.success);

  RateLimitedStreamingChannel trickle(/*symbols_per_poll=*/5);
  ProofSession limited(*problem, cfg);
  expect_reports_equal(reference, limited.run_streaming(trickle));

  ByzantineAdversary adversary({0}, ByzantineStrategy::kOffByOne, 11);
  AdversarialStreamingChannel dark(adversary);
  RateLimitedStreamingChannel dark_trickle(/*symbols_per_poll=*/7, &dark);
  ProofSession corrupted(*problem, cfg);
  ProofSession corrupted_limited(*problem, cfg);
  expect_reports_equal(
      corrupted.run_streaming(dark),
      corrupted_limited.run_streaming(dark_trickle));
}

TEST(StreamingPipeline, RunPrimeStreamingDrivesSinglePrime) {
  const auto problem = make_app_problem(0);
  ClusterConfig cfg = small_config(/*nodes=*/6, /*redundancy=*/3.0);
  cfg.num_primes = 2;
  cfg.num_threads = 1;

  ProofSession s(*problem, cfg);
  ASSERT_EQ(s.num_primes(), 2u);
  LosslessStreamingChannel channel;
  s.run_prime_streaming(0, channel);
  EXPECT_EQ(s.stage(0), SessionStage::kRecovered);
  EXPECT_EQ(s.stage(1), SessionStage::kCreated);
  EXPECT_FALSE(s.complete());
  s.run_prime_streaming(1, channel);
  EXPECT_TRUE(s.complete());

  ProofSession whole(*problem, cfg);
  expect_reports_equal(whole.run_streaming(channel), s.report());
}

TEST(StreamingPipeline, WorkerExceptionsReachTheCaller) {
  // A throwing evaluator inside the streaming worker pool must
  // propagate out of run()/run_streaming on the calling thread.
  class ThrowingProblem final : public CamelotProblem {
   public:
    std::string name() const override { return "throwing"; }
    ProofSpec spec() const override {
      ProofSpec s;
      s.degree_bound = 16;
      s.answer_bound = BigInt::from_u64(100);
      return s;
    }
    std::unique_ptr<Evaluator> make_evaluator(const FieldOps&) const override {
      throw std::runtime_error("ThrowingProblem: evaluator construction");
    }
    std::vector<u64> recover(const Poly&, const FieldOps&) const override {
      return {0};
    }
  };
  ThrowingProblem problem;
  ClusterConfig cfg = small_config();
  cfg.num_threads = 4;
  ProofSession s(problem, cfg);
  EXPECT_THROW(s.run(), std::runtime_error);
  EXPECT_THROW(ProofSession(problem, cfg).run_prime_streaming(
                   0, LosslessStreamingChannel()),
               std::runtime_error);
}

TEST(StreamingPipeline, SharedCodeCacheAcrossSessions) {
  const auto problem = make_app_problem(0);
  const ClusterConfig cfg = small_config();
  auto codes = std::make_shared<CodeCache>();

  ProofSession first(*problem, cfg, nullptr, nullptr, codes);
  const RunReport a = first.run();
  ASSERT_TRUE(a.success);
  const CodeCache::Stats cold = codes->stats();
  EXPECT_GT(cold.misses, 0u);
  EXPECT_EQ(cold.hits, 0u);

  ProofSession second(*problem, cfg, nullptr, nullptr, codes);
  const RunReport b = second.run();
  const CodeCache::Stats warm = codes->stats();
  EXPECT_EQ(warm.misses, cold.misses);  // every code reused
  EXPECT_GE(warm.hits, cold.misses);
  expect_reports_equal(a, b);
}

}  // namespace
}  // namespace camelot
