// Cross-problem framework invariants: every CamelotProblem in the
// library must (a) honour its declared degree bound, (b) produce a
// proof that passes independent verification, and (c) behave correctly
// at the exact unique-decoding radius boundary.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <functional>
#include <numeric>
#include <random>

#include "apps/conv3sum.hpp"
#include "apps/csp2.hpp"
#include "apps/hamming.hpp"
#include "apps/ov.hpp"
#include "core/proof_session.hpp"
#include "core/verifier.hpp"
#include "count/clique_camelot.hpp"
#include "count/triangle_camelot.hpp"
#include "exp/chromatic.hpp"
#include "exp/hamilton.hpp"
#include "exp/permanent.hpp"
#include "exp/setcover.hpp"
#include "exp/setpartition.hpp"
#include "exp/tutte.hpp"
#include "field/primes.hpp"
#include "graph/generators.hpp"
#include "rs/gao.hpp"

namespace camelot {
namespace {

using ProblemFactory = std::function<std::unique_ptr<CamelotProblem>()>;

struct NamedFactory {
  const char* label;
  ProblemFactory make;
};

std::vector<NamedFactory> all_problems() {
  return {
      {"cliques",
       [] {
         return std::make_unique<CliqueCountProblem>(
             gnp(6, 0.6, 1), 6, strassen_decomposition());
       }},
      {"triangles",
       [] {
         return std::make_unique<TriangleCountProblem>(
             gnm(10, 20, 2), strassen_decomposition());
       }},
      {"chromatic",
       [] { return std::make_unique<ChromaticProblem>(gnp(6, 0.5, 3)); }},
      {"tutte",
       [] { return std::make_unique<TutteProblem>(gnm(6, 7, 4)); }},
      {"exact-covers",
       [] {
         return std::make_unique<ExactCoverProblem>(
             6, std::vector<u64>{0b000011, 0b001100, 0b110000, 0b111100,
                                 0b001111},
             3);
       }},
      {"set-covers",
       [] {
         return std::make_unique<SetCoverProblem>(
             6, std::vector<u64>{0b000111, 0b111000, 0b010101, 0b101010},
             2);
       }},
      {"permanent",
       [] {
         return std::make_unique<PermanentProblem>(IntMatrix::random(6, 3, 5));
       }},
      {"hamilton",
       [] { return std::make_unique<HamiltonCycleProblem>(gnp(7, 0.6, 6)); }},
      {"ov",
       [] {
         return std::make_unique<OrthogonalVectorsProblem>(
             BoolMatrix::random(8, 4, 0.4, 7),
             BoolMatrix::random(8, 4, 0.4, 8));
       }},
      {"hamming",
       [] {
         return std::make_unique<HammingDistributionProblem>(
             BoolMatrix::random(5, 3, 0.5, 9),
             BoolMatrix::random(5, 3, 0.5, 10));
       }},
      {"conv3sum",
       [] {
         return std::make_unique<Conv3SumProblem>(
             std::vector<u64>{1, 2, 3, 4, 5, 8}, 4);
       }},
      {"csp2",
       [] {
         return std::make_unique<Csp2Problem>(
             Csp2Instance::random(6, 2, 3, 0.5, 11),
             strassen_decomposition());
       }},
  };
}

// Two-adicity for a code of length e: its points are the powers of a
// primitive bit_ceil(e)-th root of unity. Never below 8, so the small
// catalog codes keep their primes.
int code_adicity(std::size_t e) {
  return std::max(8, std::countr_zero(std::bit_ceil(e)));
}

class AllProblems : public ::testing::TestWithParam<std::size_t> {};

TEST_P(AllProblems, HonestEvaluationsInterpolateWithinDegreeBound) {
  // Interpolate through d+1 honest evaluations, then predict fresh
  // points: if deg P exceeded the declared bound this would fail.
  auto problem = all_problems()[GetParam()].make();
  const ProofSpec spec = problem->spec();
  const u64 q = find_ntt_prime(
      std::max<u64>(spec.min_modulus, 2 * (spec.degree_bound + 2)),
      code_adicity(spec.degree_bound + 1));
  PrimeField f(q);
  ReedSolomonCode code(f, spec.degree_bound, spec.degree_bound + 1);
  auto ev = problem->make_evaluator(f);
  std::vector<u64> word(code.length());
  for (std::size_t i = 0; i < word.size(); ++i) {
    word[i] = ev->eval(code.points()[i]);
  }
  Poly proof = code.interpolate_received(word);
  EXPECT_LE(proof.degree(), static_cast<int>(spec.degree_bound));
  for (u64 probe : {spec.degree_bound + 5, q - 3, q / 2}) {
    EXPECT_EQ(ev->eval(probe), poly_eval(proof, probe, f))
        << all_problems()[GetParam()].label << " probe=" << probe;
  }
}

TEST_P(AllProblems, HonestProofVerifiesAndRecoverCountMatchesSpec) {
  auto problem = all_problems()[GetParam()].make();
  const ProofSpec spec = problem->spec();
  const u64 q = find_ntt_prime(
      std::max<u64>(spec.min_modulus, 2 * (spec.degree_bound + 2)),
      code_adicity(spec.degree_bound + 1));
  PrimeField f(q);
  ReedSolomonCode code(f, spec.degree_bound, spec.degree_bound + 1);
  auto ev = problem->make_evaluator(f);
  std::vector<u64> word(code.length());
  for (std::size_t i = 0; i < word.size(); ++i) {
    word[i] = ev->eval(code.points()[i]);
  }
  Poly proof = code.interpolate_received(word);
  VerifyResult vr = verify_proof_with(*ev, proof, 2, 99);
  EXPECT_TRUE(vr.accepted) << all_problems()[GetParam()].label;
  EXPECT_EQ(problem->recover(proof, f).size(), spec.answer_count);
}

TEST_P(AllProblems, RecoverIsBackendIndependent) {
  // recover runs its kernels on the session's resolved backend; the
  // residues must not depend on which one that is.
  auto problem = all_problems()[GetParam()].make();
  const ProofSpec spec = problem->spec();
  const u64 q = find_ntt_prime(
      std::max<u64>(spec.min_modulus, 2 * (spec.degree_bound + 2)),
      code_adicity(spec.degree_bound + 1));
  PrimeField f(q);
  ReedSolomonCode code(f, spec.degree_bound, spec.degree_bound + 1);
  auto ev = problem->make_evaluator(f);
  std::vector<u64> word(code.length());
  for (std::size_t i = 0; i < word.size(); ++i) {
    word[i] = ev->eval(code.points()[i]);
  }
  const Poly proof = code.interpolate_received(word);
  const std::vector<u64> scalar = problem->recover(proof, FieldOps(f));
  ASSERT_EQ(scalar.size(), spec.answer_count);
  // Lane requests the host cannot run resolve downward, so the
  // comparison degrades gracefully instead of skipping.
  const FieldBackend backends[] = {
      FieldBackend::kPrimeDivision, FieldBackend::kMontgomery,
      FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512};
  for (const FieldBackend b : backends) {
    const FieldOps ops(f, b);
    EXPECT_EQ(problem->recover(proof, ops), scalar)
        << all_problems()[GetParam()].label << " backend=" << int(b);
  }
}

INSTANTIATE_TEST_SUITE_P(Catalog, AllProblems,
                         ::testing::Range<std::size_t>(0, 12));

TEST(RadiusBoundary, ExactRadiusCorrectsOneMoreFails) {
  // Symbol-granular boundary: exactly radius errors decode; one more
  // random error must not produce a silently wrong *verified* proof.
  OrthogonalVectorsProblem problem(BoolMatrix::random(6, 4, 0.4, 1),
                                   BoolMatrix::random(6, 4, 0.4, 2));
  const ProofSpec spec = problem.spec();
  const std::size_t e = 2 * (spec.degree_bound + 1);
  const u64 q =
      find_ntt_prime(std::max<u64>(spec.min_modulus, e + 1), code_adicity(e));
  PrimeField f(q);
  ReedSolomonCode code(f, spec.degree_bound, e);
  auto ev = problem.make_evaluator(f);
  std::vector<u64> clean(e);
  for (std::size_t i = 0; i < e; ++i) clean[i] = ev->eval(code.points()[i]);
  GaoResult base = gao_decode(code, clean);
  ASSERT_EQ(base.status, DecodeStatus::kOk);
  const Poly truth = base.message;

  std::mt19937_64 rng(5);
  const std::size_t radius = code.decoding_radius();
  // Exactly radius errors: decoded message equals the honest proof.
  auto word = clean;
  for (std::size_t i = 0; i < radius; ++i) {
    word[i] = f.add(word[i], 1 + rng() % (f.modulus() - 1));
  }
  GaoResult at_radius = gao_decode(code, word);
  ASSERT_EQ(at_radius.status, DecodeStatus::kOk);
  EXPECT_TRUE(poly_equal(at_radius.message, truth));
  EXPECT_EQ(at_radius.error_locations.size(), radius);

  // radius + 1 errors: either decode failure, or the decoded proof
  // differs and the random-point check rejects it.
  word[radius] = f.add(word[radius], 17);
  GaoResult beyond = gao_decode(code, word);
  if (beyond.status == DecodeStatus::kOk &&
      !poly_equal(beyond.message, truth)) {
    VerifyResult vr = verify_proof_with(*ev, beyond.message, 6, 7);
    EXPECT_FALSE(vr.accepted);
  }
  SUCCEED();
}

TEST(RadiusBoundary, SilentNodesAreErasuresNotCatastrophes) {
  // Silent nodes emit zeros; as long as the number of zeroed symbols
  // stays within the radius the answer survives.
  TriangleCountProblem problem(gnm(10, 18, 3), strassen_decomposition());
  ClusterConfig cfg;
  cfg.num_nodes = 10;
  cfg.redundancy = 2.0;
  ByzantineAdversary adversary({0, 5}, ByzantineStrategy::kSilent, 1);
  RunReport report = ProofSession(problem, cfg).run(&adversary);
  EXPECT_TRUE(report.success);
}

TEST(TraitorImplication, ImplicatedNodesAreExactlyTheCorruptedOwners) {
  // Seeded random traitor sets whose owned symbols fit the per-prime
  // decoding radius. For every prime, the implicated set must equal
  // the owners of the positions where the adversarial received word
  // differs from the lossless one. That set comes from the two words,
  // not from the traitor list: a random or colluding symbol may
  // coincide with the honest one.
  TriangleCountProblem problem(gnm(10, 20, 2), strassen_decomposition());
  ClusterConfig cfg;
  cfg.num_nodes = 12;
  cfg.redundancy = 3.0;
  cfg.num_threads = 2;
  ProofSession honest(problem, cfg);
  const RunReport clean = honest.run();
  ASSERT_TRUE(clean.success);
  const std::size_t k = cfg.num_nodes;
  const std::size_t e = clean.code_length;
  const std::size_t radius = (e - clean.proof_symbols) / 2;

  std::mt19937_64 rng(0x7a17);
  std::size_t nonempty = 0;
  for (ByzantineStrategy strategy :
       {ByzantineStrategy::kOffByOne, ByzantineStrategy::kRandom,
        ByzantineStrategy::kColludingPolynomial}) {
    for (int trial = 0; trial < 4; ++trial) {
      std::vector<std::size_t> order(k);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), rng);
      const std::size_t want = 1 + rng() % k;
      std::vector<std::size_t> traitors;
      std::size_t owned = 0;
      for (std::size_t node : order) {
        if (traitors.size() == want) break;
        const auto [lo, hi] = node_chunk(node, e, k);
        if (owned + (hi - lo) > radius) continue;
        owned += hi - lo;
        traitors.push_back(node);
      }
      ASSERT_FALSE(traitors.empty());
      std::sort(traitors.begin(), traitors.end());
      SCOPED_TRACE(::testing::Message()
                   << "strategy " << static_cast<int>(strategy) << " trial "
                   << trial << " traitors " << traitors.size());

      ByzantineAdversary adversary(traitors, strategy, rng());
      ProofSession session(problem, cfg);
      const RunReport report = session.run(&adversary);
      EXPECT_TRUE(report.success);
      ASSERT_EQ(report.per_prime.size(), clean.per_prime.size());
      for (std::size_t pi = 0; pi < report.per_prime.size(); ++pi) {
        const std::vector<u64>& got = session.received(pi);
        const std::vector<u64>& ref = honest.received(pi);
        ASSERT_EQ(got.size(), e);
        ASSERT_EQ(ref.size(), e);
        std::vector<std::size_t> expected;
        for (std::size_t node = 0; node < k; ++node) {
          const auto [lo, hi] = node_chunk(node, e, k);
          for (std::size_t i = lo; i < hi; ++i) {
            if (got[i] != ref[i]) {
              expected.push_back(node);
              break;
            }
          }
        }
        std::vector<std::size_t> implicated =
            report.per_prime[pi].implicated_nodes;
        std::sort(implicated.begin(), implicated.end());
        EXPECT_EQ(implicated, expected) << "prime index " << pi;
        // Off-by-one rewrites every owned symbol, so there the words
        // and the traitor list must agree too.
        if (strategy == ByzantineStrategy::kOffByOne) {
          EXPECT_EQ(expected, traitors) << "prime index " << pi;
        }
        if (!expected.empty()) ++nonempty;
      }
    }
  }
  EXPECT_GT(nonempty, 0u);
}

}  // namespace
}  // namespace camelot
