// Tests for the staged ProofSession API: golden equivalence of the
// one-shot run() against the composed whole-session stages across the
// four src/apps problems, stage mechanics, selective per-prime re-runs
// under byzantine corruption, backend selection and FieldCache reuse.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "apps/conv3sum.hpp"
#include "apps/csp2.hpp"
#include "apps/hamming.hpp"
#include "apps/ov.hpp"
#include "core/proof_session.hpp"
#include "core/rng.hpp"
#include "linalg/tensor.hpp"

namespace camelot {
namespace {

ClusterConfig small_config(std::size_t nodes = 4, double redundancy = 1.5) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.redundancy = redundancy;
  return cfg;
}

// One of the four polynomial-time application problems at a small
// size, with brute-force ground truth where the answers map to it
// directly (csp2's answers go through the Form62 weighting, so that
// case anchors on success + cross-backend agreement only).
struct AppCase {
  std::unique_ptr<CamelotProblem> problem;
  std::vector<u64> expected;  // empty = no direct ground truth
};

AppCase make_app_problem(int which) {
  switch (which) {
    case 0: {
      BoolMatrix a = BoolMatrix::random(8, 5, 0.35, 11);
      BoolMatrix b = BoolMatrix::random(8, 5, 0.35, 22);
      return {std::make_unique<OrthogonalVectorsProblem>(a, b),
              count_orthogonal_brute(a, b)};
    }
    case 1: {
      BoolMatrix a = BoolMatrix::random(6, 4, 0.4, 33);
      BoolMatrix b = BoolMatrix::random(6, 4, 0.4, 44);
      return {std::make_unique<HammingDistributionProblem>(a, b),
              hamming_distribution_brute(a, b)};
    }
    case 2: {
      std::vector<u64> v = {3, 1, 4, 1, 5, 9, 2, 6};
      return {std::make_unique<Conv3SumProblem>(v, 6), conv3sum_brute(v)};
    }
    default: {
      Csp2Instance inst = Csp2Instance::random(6, 2, 4, 0.5, 77);
      return {std::make_unique<Csp2Problem>(inst, strassen_decomposition()),
              {}};
    }
  }
}

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
  }
}

class GoldenEquivalence : public ::testing::TestWithParam<int> {};

TEST_P(GoldenEquivalence, RunMatchesComposedStages) {
  const AppCase c = make_app_problem(GetParam());
  const ClusterConfig cfg = small_config();

  RunReport oneshot = ProofSession(*c.problem, cfg).run();
  ASSERT_TRUE(oneshot.success);

  ProofSession session(*c.problem, cfg);
  RunReport staged =
      session.prepare().transport().decode().verify().recover().report();
  expect_reports_equal(oneshot, staged);

  // Anchor against brute-force ground truth (both paths share the
  // engine's prepare, so the equivalence alone would be circular).
  if (!c.expected.empty()) {
    ASSERT_EQ(staged.answers.size(), c.expected.size());
    for (std::size_t i = 0; i < c.expected.size(); ++i) {
      EXPECT_EQ(staged.answers[i].to_u64(), c.expected[i]) << "answer " << i;
    }
  }
}

TEST_P(GoldenEquivalence, BackendsAgreeBitForBit) {
  const AppCase c = make_app_problem(GetParam());
  ClusterConfig cfg = small_config();

  cfg.backend = FieldBackend::kMontgomery;
  RunReport mont = ProofSession(*c.problem, cfg).run();
  cfg.backend = FieldBackend::kPrimeDivision;
  RunReport divi = ProofSession(*c.problem, cfg).run();
  ASSERT_TRUE(mont.success);
  expect_reports_equal(mont, divi);
  // The SIMD requests resolve to the lane kernels where the process
  // supports them and step down the ladder otherwise; either way the
  // whole pipeline must land on the same words.
  cfg.backend = FieldBackend::kMontgomeryAvx2;
  RunReport avx2 = ProofSession(*c.problem, cfg).run();
  expect_reports_equal(mont, avx2);
  cfg.backend = FieldBackend::kMontgomeryAvx512;
  RunReport avx512 = ProofSession(*c.problem, cfg).run();
  expect_reports_equal(mont, avx512);
}

INSTANTIATE_TEST_SUITE_P(Apps, GoldenEquivalence,
                         ::testing::Values(0, 1, 2, 3));

TEST(ProofSession, ManualStagesEqualRun) {
  const AppCase app = make_app_problem(0);
  const ClusterConfig cfg = small_config();
  RunReport oneshot = ProofSession(*app.problem, cfg).run();

  ProofSession s(*app.problem, cfg);
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    EXPECT_EQ(s.stage(pi), SessionStage::kCreated);
  }
  s.prepare();
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    EXPECT_EQ(s.stage(pi), SessionStage::kPrepared);
    EXPECT_EQ(s.sent(pi).size(), s.plan().code_length);
  }
  s.transport();
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    // Lossless channel: received == sent.
    EXPECT_EQ(s.received(pi), s.sent(pi));
  }
  s.decode().verify().recover();
  EXPECT_TRUE(s.complete());
  expect_reports_equal(oneshot, s.report());
}

TEST(ProofSession, StagePreconditionsEnforced) {
  const AppCase app = make_app_problem(2);
  ProofSession s(*app.problem, small_config());
  EXPECT_THROW(s.decode_prime(0), std::logic_error);
  EXPECT_THROW(s.sent(0), std::logic_error);
  EXPECT_THROW(s.verify_prime(0), std::logic_error);
  EXPECT_THROW(s.prepare_prime(s.num_primes()), std::out_of_range);
  s.prepare_prime(0);
  EXPECT_THROW(s.decode_prime(0), std::logic_error);  // not transported yet
  s.transport_prime(0, LosslessStreamingChannel());
  EXPECT_NO_THROW(s.decode_prime(0));
}

TEST(ProofSession, CorruptOnePrimeRerunOnlyThatPrime) {
  // Morgana corrupts the broadcast of a single prime. The session
  // pinpoints the traitors on that prime, and re-running just that
  // prime's transport+decode (clean channel this time) completes the
  // job without touching the other primes' state.
  const AppCase app = make_app_problem(0);
  ClusterConfig cfg = small_config(/*nodes=*/6, /*redundancy=*/3.0);
  cfg.num_primes = 3;  // force several primes so selectivity matters

  ProofSession s(*app.problem, cfg);
  s.prepare();
  ASSERT_GE(s.num_primes(), 2u);
  const std::size_t bad = 1;

  ByzantineAdversary adversary({2, 4}, ByzantineStrategy::kRandom, 1234);
  AdversarialStreamingChannel dark(adversary);
  LosslessStreamingChannel clean;
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    s.transport_prime(
        pi, pi == bad ? static_cast<const StreamingSymbolChannel&>(dark)
                      : clean);
  }
  s.decode().verify().recover();

  // Within the decoding radius: every prime decodes; only the
  // corrupted prime implicates nodes, and exactly the right ones.
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    EXPECT_EQ(s.prime_report(pi).decode_status, DecodeStatus::kOk);
    if (pi == bad) continue;
    EXPECT_TRUE(s.prime_report(pi).implicated_nodes.empty());
  }
  EXPECT_EQ(s.implicated_nodes(), (std::vector<std::size_t>{2, 4}));
  EXPECT_TRUE(s.complete());
  const RunReport with_corruption = s.report();
  EXPECT_TRUE(with_corruption.success);

  // Selective re-run of the corrupted prime on a clean channel: the
  // other primes keep their exact state (same residue vectors), and
  // the re-decoded prime now corrects nothing.
  std::vector<std::vector<u64>> residues_before;
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    residues_before.push_back(s.prime_report(pi).answer_residues);
  }
  s.transport_prime(bad, clean);
  EXPECT_EQ(s.stage(bad), SessionStage::kTransported);
  // Other primes were not reset.
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    if (pi != bad) EXPECT_EQ(s.stage(pi), SessionStage::kRecovered);
  }
  s.decode_prime(bad);
  EXPECT_TRUE(s.prime_report(bad).corrected_symbols.empty());
  EXPECT_TRUE(s.prime_report(bad).implicated_nodes.empty());
  s.verify_prime(bad);
  s.recover_prime(bad);
  EXPECT_TRUE(s.complete());

  const RunReport rerun = s.report();
  EXPECT_TRUE(rerun.success);
  EXPECT_EQ(rerun.answers.size(), with_corruption.answers.size());
  for (std::size_t i = 0; i < rerun.answers.size(); ++i) {
    EXPECT_EQ(rerun.answers[i], with_corruption.answers[i]);
  }
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    EXPECT_EQ(s.prime_report(pi).answer_residues, residues_before[pi]);
  }
}

TEST(ProofSession, AdversaryStreamsDifferPerPrime) {
  // The per-(seed, prime, stage) streams make the random corruption
  // differ across primes (the legacy path used one stream for all).
  const AppCase app = make_app_problem(0);
  ClusterConfig cfg = small_config(4, 2.0);
  cfg.num_primes = 2;
  ByzantineAdversary adversary({1}, ByzantineStrategy::kRandom, 555);

  ProofSession s(*app.problem, cfg);
  s.prepare();
  s.transport(&adversary);
  ASSERT_EQ(s.num_primes(), 2u);
  // Collect the corrupted positions' deltas per prime; with kRandom
  // they are fresh draws, so the two primes' received words disagree
  // with their sent words in (almost surely) different patterns.
  std::vector<std::vector<u64>> corrupted(2);
  for (std::size_t pi = 0; pi < 2; ++pi) {
    for (std::size_t i = 0; i < s.sent(pi).size(); ++i) {
      if (s.sent(pi)[i] != s.received(pi)[i]) {
        corrupted[pi].push_back(s.received(pi)[i]);
      }
    }
    EXPECT_FALSE(corrupted[pi].empty());
  }
  EXPECT_NE(corrupted[0], corrupted[1]);
}

TEST(ProofSession, DeterministicAcrossThreadCounts) {
  const AppCase app = make_app_problem(3);
  ClusterConfig cfg = small_config(6, 2.0);
  ByzantineAdversary adversary({0}, ByzantineStrategy::kColludingPolynomial,
                               999);
  cfg.num_threads = 1;
  RunReport serial = ProofSession(*app.problem, cfg).run(&adversary);
  cfg.num_threads = 4;
  RunReport parallel = ProofSession(*app.problem, cfg).run(&adversary);
  ASSERT_TRUE(serial.success);
  expect_reports_equal(serial, parallel);
}

TEST(ProofSession, SharedFieldCacheIsReused) {
  const AppCase app = make_app_problem(0);
  const ClusterConfig cfg = small_config();
  auto cache = std::make_shared<FieldCache>();

  RunReport first = ProofSession(*app.problem, cfg, cache).run();
  ASSERT_TRUE(first.success);
  const FieldCache::Stats cold = cache->stats();
  EXPECT_GT(cold.mont_misses, 0u);

  RunReport second = ProofSession(*app.problem, cfg, cache).run();
  ASSERT_TRUE(second.success);
  const FieldCache::Stats warm = cache->stats();
  EXPECT_EQ(warm.mont_misses, cold.mont_misses);  // no new builds
  EXPECT_GT(warm.mont_hits, cold.mont_hits);
  EXPECT_EQ(warm.ntt_misses, cold.ntt_misses);
  expect_reports_equal(first, second);
}

TEST(ProofSession, SystematicEncodeMatchesFullEvaluation) {
  // The fast path must be invisible to everything downstream: the
  // degree-<=d interpolant through the d+1 honest message symbols is
  // the proof polynomial itself, so the extended codeword carries the
  // same words the parity nodes would have evaluated.
  for (int which : {0, 2}) {
    const AppCase app = make_app_problem(which);
    ClusterConfig cfg = small_config();
    ASSERT_TRUE(cfg.systematic_encode);
    ProofSession fast(*app.problem, cfg);
    cfg.systematic_encode = false;
    ProofSession full(*app.problem, cfg);
    fast.prepare();
    full.prepare();
    ASSERT_EQ(fast.num_primes(), full.num_primes());
    for (std::size_t pi = 0; pi < fast.num_primes(); ++pi) {
      EXPECT_EQ(fast.sent(pi), full.sent(pi)) << "prime " << pi;
    }
    RunReport a = fast.run();
    RunReport b = full.run();
    ASSERT_TRUE(a.success);
    expect_reports_equal(a, b);
  }
}

// Channel that adds 1 to the symbols at fixed positions — targeted
// corruption for exercising specific codeword regions. Its streams
// rewrite each chunk on push and otherwise deliver losslessly.
class FlipChannel final : public StreamingSymbolChannel {
 public:
  explicit FlipChannel(std::vector<std::size_t> positions)
      : positions_(std::move(positions)) {}
  std::unique_ptr<SymbolStream> open(const StreamSpec& spec) const override {
    return std::make_unique<FlipStream>(
        LosslessStreamingChannel().open(spec), *spec.field, positions_);
  }

 private:
  class FlipStream final : public SymbolStream {
   public:
    FlipStream(std::unique_ptr<SymbolStream> inner, const PrimeField& f,
               const std::vector<std::size_t>& positions)
        : inner_(std::move(inner)), f_(f), positions_(positions) {}
    void push(SymbolChunk chunk) override {
      const std::size_t end = chunk.offset + chunk.symbols.size();
      for (std::size_t pos : positions_) {
        if (pos >= chunk.offset && pos < end) {
          u64& v = chunk.symbols[pos - chunk.offset];
          v = f_.add(v, 1);
        }
      }
      inner_->push(std::move(chunk));
    }
    void close() override { inner_->close(); }
    std::optional<SymbolChunk> poll() override { return inner_->poll(); }
    bool exhausted() override { return inner_->exhausted(); }

   private:
    std::unique_ptr<SymbolStream> inner_;
    const PrimeField& f_;
    const std::vector<std::size_t>& positions_;
  };

  std::vector<std::size_t> positions_;
};

TEST(ProofSession, CorruptedMessageAndParityChunksBothRecover) {
  // On the systematic path the message prefix ships evaluator output
  // and the parity tail ships the code extension; corruption in
  // either region must decode away, and a selective re-run of the
  // poisoned prime must still work.
  const AppCase app = make_app_problem(0);
  ClusterConfig cfg = small_config(/*nodes=*/6, /*redundancy=*/3.0);
  ASSERT_TRUE(cfg.systematic_encode);
  ProofSession s(*app.problem, cfg);
  s.prepare();

  const std::size_t e = s.plan().code_length;
  const std::size_t m = app.problem->spec().degree_bound + 1;
  ASSERT_LT(m, e);  // there is a parity tail to corrupt
  const std::size_t msg_pos = m / 2;
  const std::size_t par_pos = e - 1;
  FlipChannel flip({msg_pos, par_pos});
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    s.transport_prime(pi, flip);
  }
  s.decode().verify().recover();
  EXPECT_TRUE(s.complete());
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    EXPECT_EQ(s.prime_report(pi).decode_status, DecodeStatus::kOk);
    EXPECT_EQ(s.prime_report(pi).corrected_symbols,
              (std::vector<std::size_t>{msg_pos, par_pos}));
    EXPECT_GT(s.prime_report(pi).decode_quotient_steps, 0u);
    EXPECT_GE(s.prime_report(pi).decode_hgcd_calls, 1u);
  }
  const RunReport corrupted = s.report();
  ASSERT_TRUE(corrupted.success);

  // Selective re-run of one prime over a clean channel: the prepared
  // (systematically extended) codeword is still in place, so only
  // transport/decode/verify/recover repeat — and correct nothing.
  s.transport_prime(0, LosslessStreamingChannel());
  s.decode_prime(0);
  EXPECT_TRUE(s.prime_report(0).corrected_symbols.empty());
  EXPECT_EQ(s.prime_report(0).decode_quotient_steps, 0u);
  s.verify_prime(0);
  s.recover_prime(0);
  EXPECT_TRUE(s.complete());
  // Same answers as the corrupted-then-corrected pass (the clean
  // re-run differs only in having nothing to correct).
  const RunReport rerun = s.report();
  ASSERT_TRUE(rerun.success);
  ASSERT_EQ(rerun.answers.size(), corrupted.answers.size());
  for (std::size_t i = 0; i < rerun.answers.size(); ++i) {
    EXPECT_EQ(rerun.answers[i], corrupted.answers[i]);
  }
  for (std::size_t pi = 0; pi < s.num_primes(); ++pi) {
    EXPECT_EQ(rerun.per_prime[pi].answer_residues,
              corrupted.per_prime[pi].answer_residues);
  }
}

TEST(ProofSession, CancelledStreamingPrimeResetsAndReruns) {
  // In-flight deadline cancellation through the systematic deferral:
  // the cancel probe fires at a chunk boundary after some message
  // chunks were computed, the prime resets to kCreated, and a re-run
  // with a fresh budget completes normally.
  const AppCase app = make_app_problem(0);
  ClusterConfig cfg = small_config();
  cfg.num_threads = 1;  // deterministic probe sequence
  ASSERT_TRUE(cfg.systematic_encode);
  ProofSession s(*app.problem, cfg);
  LosslessStreamingChannel channel;

  int probes = 0;
  SessionCancelFn cancel = [&probes] { return ++probes > 2; };
  EXPECT_THROW(s.run_prime_streaming(0, channel, cancel), SessionCancelled);
  EXPECT_EQ(s.stage(0), SessionStage::kCreated);

  s.run_prime_streaming(0, channel);
  EXPECT_EQ(s.stage(0), SessionStage::kRecovered);
  EXPECT_TRUE(s.prime_report(0).verified);
  EXPECT_EQ(s.prime_report(0).decode_status, DecodeStatus::kOk);
}

TEST(DeriveStream, StreamsAreDistinctAndStable) {
  const u64 a = derive_stream(1, 97, PipelineStage::kVerify);
  EXPECT_EQ(a, derive_stream(1, 97, PipelineStage::kVerify));
  EXPECT_NE(a, derive_stream(1, 97, PipelineStage::kTransport));
  EXPECT_NE(a, derive_stream(1, 101, PipelineStage::kVerify));
  EXPECT_NE(a, derive_stream(2, 97, PipelineStage::kVerify));
}

}  // namespace
}  // namespace camelot
