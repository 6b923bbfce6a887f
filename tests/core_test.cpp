// End-to-end tests of the Camelot framework (§1.3 pipeline) against a
// transparent toy problem whose proof polynomial is fully known.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "core/proof_session.hpp"
#include "core/prime_plan.hpp"
#include "core/verifier.hpp"
#include "count/clique_camelot.hpp"
#include "field/primes.hpp"
#include "graph/generators.hpp"
#include "linalg/tensor.hpp"

namespace camelot {
namespace {

// Toy problem: the common input is a vector v of small integers; the
// proof polynomial is P(x) = sum_j v_j x^j and the answer is
// P(1) = sum_j v_j. Transparent enough to check every framework stage.
class ToyProblem : public CamelotProblem {
 public:
  explicit ToyProblem(std::vector<u64> input) : input_(std::move(input)) {}

  std::string name() const override { return "toy-sum"; }

  ProofSpec spec() const override {
    ProofSpec s;
    s.degree_bound = input_.size() - 1;
    s.min_modulus = 257;
    s.answer_count = 1;
    u64 sum = std::accumulate(input_.begin(), input_.end(), u64{0});
    s.answer_bound = BigInt::from_u64(sum);
    return s;
  }

  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override {
    class Ev : public Evaluator {
     public:
      Ev(const FieldOps& f, const std::vector<u64>& v)
          : Evaluator(f), v_(v) {}
      u64 eval(u64 x0) override {
        u64 acc = 0;
        for (std::size_t i = v_.size(); i-- > 0;) {
          acc = field_.add(field_.mul(acc, x0), field_.reduce(v_[i]));
        }
        return acc;
      }

     private:
      const std::vector<u64>& v_;
    };
    return std::make_unique<Ev>(f, input_);
  }

  std::vector<u64> recover(const Poly& proof,
                           const FieldOps& f) const override {
    return {poly_eval(proof, 1, f.prime())};
  }

 private:
  std::vector<u64> input_;
};

std::vector<u64> toy_input(std::size_t n, u64 seed) {
  std::mt19937_64 rng(seed);
  std::vector<u64> v(n);
  for (u64& x : v) x = rng() % 100;
  return v;
}

TEST(PrimePlan, RespectsConstraints) {
  ProofSpec spec;
  spec.degree_bound = 100;
  spec.min_modulus = 5000;
  spec.answer_bound = BigInt::power_of_two(80);
  PrimePlan plan = plan_primes(spec, 2.0);
  EXPECT_EQ(plan.code_length, 202u);
  EXPECT_EQ(plan.decoding_radius, 50u);
  BigInt prod = BigInt::from_u64(1);
  for (u64 q : plan.primes) {
    EXPECT_GE(q, 5000u);
    EXPECT_GT(q, plan.code_length);
    prod = prod.mul_u64(q);
  }
  EXPECT_GT(prod, BigInt::power_of_two(81));
}

// The planner's two-adicity for code length e: the smallest a with
// 2^a >= 2(e+1), plus one.
int plan_two_adicity(std::size_t e) {
  int a = 0;
  while ((std::size_t{1} << a) < 2 * (e + 1)) ++a;
  return a + 1;
}

// Brute force over every integer: the `count` largest primes q < 2^31
// with q >= floor and 2^a | q - 1, ascending (fewer if the range runs
// out).
std::vector<u64> top_lane_primes(int a, u64 floor, std::size_t count) {
  const u64 mask = (u64{1} << a) - 1;
  std::vector<u64> out;
  for (u64 q = (u64{1} << 31) - 1; q >= floor && out.size() < count; --q) {
    if (((q - 1) & mask) == 0 && is_prime_u64(q)) out.push_back(q);
  }
  std::reverse(out.begin(), out.end());
  return out;
}

// Brute force over every integer: the smallest NTT primes >= floor
// (2^a | q - 1), ascending, until their product exceeds `target`.
std::vector<u64> bottom_primes_covering(int a, u64 floor,
                                        const BigInt& target) {
  const u64 mask = (u64{1} << a) - 1;
  std::vector<u64> out;
  BigInt prod = BigInt::from_u64(1);
  for (u64 q = floor; !(prod > target); ++q) {
    if (((q - 1) & mask) == 0 && is_prime_u64(q)) {
      out.push_back(q);
      prod = prod.mul_u64(q);
    }
  }
  return out;
}

// A forced count takes that many primes from the top of the lane
// range, distinct and ascending.
TEST(PrimePlan, ForcedPrimeCount) {
  ProofSpec spec;
  spec.degree_bound = 10;  // e = 11
  const int a = plan_two_adicity(11);
  for (std::size_t k : {1u, 2u, 4u, 7u}) {
    const PrimePlan plan = plan_primes(spec, 1.0, k);
    EXPECT_EQ(plan.primes, top_lane_primes(a, 12, k)) << "k=" << k;
  }
}

// Answer bounds at the CRT boundary: the product of the top k primes
// must exceed 2*bound + 1 strictly.
TEST(PrimePlan, FewestTopPrimesAtExactCrtBoundary) {
  ProofSpec spec;
  spec.degree_bound = 10;
  const int a = plan_two_adicity(11);
  const std::vector<u64> top = top_lane_primes(a, 12, 3);
  ASSERT_EQ(top.size(), 3u);
  // top[2] alone, then top[2] * top[1].
  const u128 products[] = {top[2], u128{top[2]} * top[1]};
  for (std::size_t k = 1; k <= 2; ++k) {
    const u128 p = products[k - 1];
    // 2*bound + 1 == p: k primes are not enough.
    spec.answer_bound = BigInt::from_u128((p - 1) / 2);
    std::vector<u64> want(top.end() - static_cast<std::ptrdiff_t>(k + 1),
                          top.end());
    EXPECT_EQ(plan_primes(spec, 1.0).primes, want) << "k=" << k;
    // One unit below: k primes cover it.
    spec.answer_bound = BigInt::from_u128((p - 1) / 2 - 1);
    want.erase(want.begin());
    EXPECT_EQ(plan_primes(spec, 1.0).primes, want) << "k=" << k;
  }
}

TEST(PrimePlan, MinModulusAboveLaneRangeWalksUpward) {
  ProofSpec spec;
  spec.degree_bound = 100;
  spec.min_modulus = u64{1} << 40;
  spec.answer_bound = BigInt::power_of_two(80);
  const PrimePlan plan = plan_primes(spec, 2.0);
  const BigInt target = BigInt::power_of_two(81) + BigInt(1);
  EXPECT_EQ(plan.primes,
            bottom_primes_covering(plan_two_adicity(202), u64{1} << 40,
                                   target));
  for (u64 q : plan.primes) EXPECT_GE(q, u64{1} << 40);
}

TEST(PrimePlan, TooFewLanePrimesAboveMinModulusFallsBack) {
  ProofSpec spec;
  spec.degree_bound = 10;
  const int a = plan_two_adicity(11);
  // Only two candidates c*2^a + 1 lie in [min_modulus, 2^31), and the
  // bound needs three 31-bit primes.
  spec.min_modulus = (u64{1} << 31) - 2 * (u64{1} << a);
  spec.answer_bound = BigInt::power_of_two(80);
  ASSERT_LT(top_lane_primes(a, spec.min_modulus, 3).size(), 3u);
  const PrimePlan plan = plan_primes(spec, 1.0);
  const BigInt target = BigInt::power_of_two(81) + BigInt(1);
  EXPECT_EQ(plan.primes, bottom_primes_covering(a, spec.min_modulus, target));
}

// The 6-clique workload's shape (10 vertices, Strassen, redundancy 2)
// fits its answer bound in one lane prime.
TEST(PrimePlan, CliqueSixShapePlansOnePrime) {
  const CliqueCountProblem problem(planted_clique(10, 0.5, 7, 1), 6,
                                   strassen_decomposition());
  const ProofSpec spec = problem.spec();
  const std::size_t e = 2 * (spec.degree_bound + 1);
  const PrimePlan plan = plan_primes(spec, 2.0);
  ASSERT_EQ(plan.code_length, e);
  const u64 min_q = std::max<u64>(spec.min_modulus, e + 1);
  EXPECT_EQ(plan.primes, top_lane_primes(plan_two_adicity(e), min_q, 1));
}

TEST(PrimePlan, RejectsBadRedundancy) {
  ProofSpec spec;
  EXPECT_THROW(plan_primes(spec, 0.5), std::invalid_argument);
}

TEST(NodeChunk, BalancedContiguousPartition) {
  const std::pair<std::size_t, std::size_t> cases[] = {
      {103, 7}, {96, 8}, {5, 8}, {1, 1}};
  for (const auto& [e, k] : cases) {
    std::vector<std::size_t> counts(k, 0);
    std::size_t next = 0;
    for (std::size_t j = 0; j < k; ++j) {
      const auto [lo, hi] = node_chunk(j, e, k);
      EXPECT_EQ(lo, next) << "chunks must tile [0, e) in node order";
      ASSERT_LE(lo, hi);
      counts[j] = hi - lo;
      for (std::size_t i = lo; i < hi; ++i) {
        EXPECT_EQ(i * k / e, j) << "position " << i;  // owner = floor(iK/e)
      }
      next = hi;
    }
    EXPECT_EQ(next, e);
    auto [mn, mx] = std::minmax_element(counts.begin(), counts.end());
    EXPECT_LE(*mx - *mn, 1u) << "chunks must be balanced within 1 symbol";
  }
}

TEST(Pipeline, HonestRunRecoversAnswer) {
  auto input = toy_input(40, 1);
  u64 expect = std::accumulate(input.begin(), input.end(), u64{0});
  ToyProblem problem(input);
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  ASSERT_EQ(report.answers.size(), 1u);
  EXPECT_EQ(report.answers[0].to_u64(), expect);
  EXPECT_TRUE(report.implicated_nodes().empty());
  for (const auto& pr : report.per_prime) {
    EXPECT_EQ(pr.decode_status, DecodeStatus::kOk);
    EXPECT_TRUE(pr.verified);
    EXPECT_TRUE(pr.corrected_symbols.empty());
  }
}

TEST(Pipeline, WorkloadBalancedAcrossNodes) {
  ToyProblem problem(toy_input(64, 2));
  ClusterConfig cfg;
  cfg.num_nodes = 16;
  cfg.systematic_encode = false;  // every node evaluates its full chunk
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  std::size_t mn = SIZE_MAX, mx = 0, total = 0;
  for (const auto& ns : report.node_stats) {
    mn = std::min(mn, ns.symbols_computed);
    mx = std::max(mx, ns.symbols_computed);
    total += ns.symbols_computed;
  }
  // Per prime each node gets a balanced chunk; across primes this
  // stays balanced within one symbol per prime.
  EXPECT_LE(mx - mn, report.num_primes);
  EXPECT_EQ(total, report.code_length * report.num_primes);
}

TEST(Pipeline, SystematicEncodeSkipsParityEvaluations) {
  ToyProblem problem(toy_input(64, 2));
  ClusterConfig cfg;
  cfg.num_nodes = 16;
  ASSERT_TRUE(cfg.systematic_encode);  // the default fast path
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  // Evaluator work covers exactly the message prefix — d+1 symbols
  // per prime, however it lands across the owning nodes — and the
  // trailing parity-only nodes never construct an evaluator.
  std::size_t total = 0;
  for (const auto& ns : report.node_stats) total += ns.symbols_computed;
  EXPECT_EQ(total, report.proof_symbols * report.num_primes);
  EXPECT_LT(total, report.code_length * report.num_primes);
  EXPECT_EQ(report.node_stats.back().symbols_computed, 0u);
}

class ByzantineModes : public ::testing::TestWithParam<ByzantineStrategy> {};

TEST_P(ByzantineModes, ToleratedWithinRadiusAndIdentified) {
  auto input = toy_input(30, 3);
  u64 expect = std::accumulate(input.begin(), input.end(), u64{0});
  ToyProblem problem(input);
  ClusterConfig cfg;
  cfg.num_nodes = 10;
  cfg.redundancy = 3.0;  // e ~ 3(d+1): radius ~ (e-d-1)/2 ~ d
  // Corrupt 2 of 10 nodes: ~2e/10 symbols < radius ~ e/3.
  ByzantineAdversary adversary({3, 7}, GetParam(), 99);
  RunReport report = ProofSession(problem, cfg).run(&adversary);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.answers[0].to_u64(), expect);
  auto implicated = report.implicated_nodes();
  // Every implicated node is actually corrupt; off-by-one/random
  // corruption makes identification exact with overwhelming
  // probability (silent nodes emitting the true value 0 are possible
  // but the toy inputs make that measure-zero here).
  EXPECT_EQ(implicated, (std::vector<std::size_t>{3, 7}));
}

INSTANTIATE_TEST_SUITE_P(
    Strategies, ByzantineModes,
    ::testing::Values(ByzantineStrategy::kSilent, ByzantineStrategy::kRandom,
                      ByzantineStrategy::kOffByOne,
                      ByzantineStrategy::kColludingPolynomial));

TEST(Pipeline, FailureDetectedBeyondRadius) {
  // Corrupt a majority of the nodes: decoding must fail or, if a
  // colluding adversary drags the word to another codeword, the
  // random-point verification must reject. Either way success=false
  // — the paper's "each node detects this individually regardless of
  // how many nodes experienced byzantine failure".
  ToyProblem problem(toy_input(30, 4));
  ClusterConfig cfg;
  cfg.num_nodes = 10;
  cfg.redundancy = 1.2;
  for (ByzantineStrategy s :
       {ByzantineStrategy::kRandom, ByzantineStrategy::kColludingPolynomial,
        ByzantineStrategy::kOffByOne}) {
    ByzantineAdversary adversary({0, 1, 2, 3, 4, 5, 6}, s, 7);
    RunReport report = ProofSession(problem, cfg).run(&adversary);
    EXPECT_FALSE(report.success);
  }
}

TEST(Verifier, AcceptsCorrectRejectsTampered) {
  auto input = toy_input(20, 5);
  ToyProblem problem(input);
  PrimeField f(find_ntt_prime(1024, 8));
  // Build the true proof directly: coefficients are the input.
  Poly proof;
  proof.c.assign(input.begin(), input.end());
  for (u64& c : proof.c) c = f.reduce(c);
  proof.trim();
  VerifyResult ok = verify_proof(problem, proof, f, 3, 42);
  EXPECT_TRUE(ok.accepted);

  Poly bad = proof;
  bad.c[5] = f.add(bad.c[5], 1);
  // d/q ~ 19/1279: a single trial might pass; 8 trials make the
  // acceptance probability ~ (19/1279)^8 ~ 1e-15.
  VerifyResult rej = verify_proof(problem, bad, f, 8, 43);
  EXPECT_FALSE(rej.accepted);
}

TEST(Verifier, SoundnessErrorMatchesDegreeOverQ) {
  // Empirical soundness: a proof differing in one coefficient agrees
  // with P at exactly deg(diff)<=d points, so a single-trial check
  // accepts with probability <= d/q. Measure over many trials.
  auto input = toy_input(16, 6);
  ToyProblem problem(input);
  PrimeField f(257);
  Poly proof;
  proof.c.assign(input.begin(), input.end());
  for (u64& c : proof.c) c = f.reduce(c);
  Poly bad = proof;
  bad.c[3] = f.add(bad.c[3], 7);
  auto evaluator = problem.make_evaluator(f);
  int accepted = 0;
  const int trials = 2000;
  std::mt19937_64 rng(11);
  for (int t = 0; t < trials; ++t) {
    u64 x0 = rng() % f.modulus();
    if (evaluator->eval(x0) == poly_eval(bad, x0, f)) ++accepted;
  }
  // Expected acceptance rate: (#agreement points)/q <= 15/257 ~ 5.8%.
  EXPECT_LT(accepted, trials * 15 / 257 + 50);
}

TEST(ProofSession, RejectsDegenerateConfig) {
  ToyProblem problem(toy_input(10, 7));
  ClusterConfig cfg;
  cfg.num_nodes = 0;
  EXPECT_THROW((ProofSession{problem, cfg}), std::invalid_argument);
  ClusterConfig cfg2;
  cfg2.redundancy = 0.9;
  EXPECT_THROW((ProofSession{problem, cfg2}), std::invalid_argument);
}

TEST(Pipeline, SingleNodeStillWorks) {
  // K=1 degenerates to the sequential algorithm with a self-check.
  auto input = toy_input(10, 8);
  u64 expect = std::accumulate(input.begin(), input.end(), u64{0});
  ToyProblem problem(input);
  ClusterConfig cfg;
  cfg.num_nodes = 1;
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.answers[0].to_u64(), expect);
}

TEST(Pipeline, MorePrimesThanNeededStillConsistent) {
  auto input = toy_input(12, 9);
  u64 expect = std::accumulate(input.begin(), input.end(), u64{0});
  ToyProblem problem(input);
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.num_primes = 5;
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(report.num_primes, 5u);
  EXPECT_EQ(report.answers[0].to_u64(), expect);
  // Residues agree across primes after reduction.
  for (const auto& pr : report.per_prime) {
    EXPECT_EQ(pr.answer_residues[0], expect % pr.prime);
  }
}

}  // namespace
}  // namespace camelot
