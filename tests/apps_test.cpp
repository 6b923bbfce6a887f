// Tests for the polynomial-time Camelot designs (Theorems 11 and 12).
#include <gtest/gtest.h>

#include "apps/conv3sum.hpp"
#include "apps/csp2.hpp"
#include "apps/hamming.hpp"
#include "apps/ov.hpp"
#include "core/proof_session.hpp"
#include "field/primes.hpp"

namespace camelot {
namespace {

RunReport run_session(const CamelotProblem& p, std::size_t nodes = 4,
                      double redundancy = 1.25) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.redundancy = redundancy;
  return ProofSession(p, cfg).run();
}

TEST(Ov, BruteKnownCase) {
  // a = [1,0], b rows: [0,1] orthogonal to a-row0, [1,0] not.
  BoolMatrix a, b;
  a.rows = b.rows = 2;
  a.cols = b.cols = 2;
  a.bits = {1, 0, 0, 1};
  b.bits = {0, 1, 1, 0};
  auto c = count_orthogonal_brute(a, b);
  EXPECT_EQ(c, (std::vector<u64>{1, 1}));
}

class OvShapes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(OvShapes, CamelotMatchesBrute) {
  auto [n, t] = GetParam();
  BoolMatrix a = BoolMatrix::random(n, t, 0.35, n * 100 + t);
  BoolMatrix b = BoolMatrix::random(n, t, 0.35, n * 200 + t);
  auto expect = count_orthogonal_brute(a, b);
  OrthogonalVectorsProblem problem(a, b);
  RunReport report = run_session(problem);
  ASSERT_TRUE(report.success);
  ASSERT_EQ(report.answers.size(), n);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(report.answers[i].to_u64(), expect[i]) << "row " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, OvShapes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{4, 3},
                      std::pair<std::size_t, std::size_t>{16, 8},
                      std::pair<std::size_t, std::size_t>{32, 5},
                      std::pair<std::size_t, std::size_t>{10, 12}));

TEST(Ov, ProofSizeIsNearLinear) {
  // Theorem 11(1): proof size ~O(nt) with c = 1.
  BoolMatrix a = BoolMatrix::random(64, 8, 0.3, 1);
  BoolMatrix b = BoolMatrix::random(64, 8, 0.3, 2);
  OrthogonalVectorsProblem problem(a, b);
  EXPECT_LE(problem.spec().degree_bound, 64u * 8u);
}

TEST(Hamming, BruteRowSumsToN) {
  BoolMatrix a = BoolMatrix::random(6, 4, 0.5, 3);
  BoolMatrix b = BoolMatrix::random(6, 4, 0.5, 4);
  auto counts = hamming_distribution_brute(a, b);
  for (std::size_t i = 0; i < 6; ++i) {
    u64 row = 0;
    for (std::size_t h = 0; h <= 4; ++h) row += counts[i * 5 + h];
    EXPECT_EQ(row, 6u);
  }
}

TEST(Hamming, CamelotMatchesBrute) {
  for (auto [n, t] : std::vector<std::pair<std::size_t, std::size_t>>{
           {4, 3}, {8, 5}, {12, 4}}) {
    BoolMatrix a = BoolMatrix::random(n, t, 0.4, n + t);
    BoolMatrix b = BoolMatrix::random(n, t, 0.6, n * 3 + t);
    auto expect = hamming_distribution_brute(a, b);
    HammingDistributionProblem problem(a, b);
    RunReport report = run_session(problem);
    ASSERT_TRUE(report.success) << n << "x" << t;
    ASSERT_EQ(report.answers.size(), n * (t + 1));
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(report.answers[i].to_u64(), expect[i]) << "slot " << i;
    }
  }
}

TEST(Hamming, OrthogonalityIsDistanceSpecialCase) {
  // For 0/1 vectors, distance counts refine orthogonality: row pairs
  // at distance = popcount(a_i) + popcount(b_k) are disjoint-support.
  BoolMatrix a = BoolMatrix::random(6, 5, 0.3, 9);
  BoolMatrix b = BoolMatrix::random(6, 5, 0.3, 10);
  auto dist = hamming_distribution_brute(a, b);
  auto orth = count_orthogonal_brute(a, b);
  for (std::size_t i = 0; i < 6; ++i) {
    u64 disjoint = 0;
    for (std::size_t k = 0; k < 6; ++k) {
      std::size_t pa = 0, pb = 0, d = 0;
      for (std::size_t j = 0; j < 5; ++j) {
        pa += a.at(i, j);
        pb += b.at(k, j);
        d += a.at(i, j) != b.at(k, j);
      }
      if (d == pa + pb) ++disjoint;
    }
    EXPECT_EQ(disjoint, orth[i]);
  }
}

TEST(RippleCarry, GadgetOnBooleanInputs) {
  PrimeField f(find_ntt_prime(1 << 12, 6));
  const unsigned bits = 5;
  for (u64 y = 0; y < 32; y += 3) {
    for (u64 z = 0; z < 32; z += 5) {
      for (u64 w = 0; w < 32; w += 7) {
        std::vector<u64> yb(bits), zb(bits), wb(bits);
        for (unsigned j = 0; j < bits; ++j) {
          yb[j] = (y >> j) & 1;
          zb[j] = (z >> j) & 1;
          wb[j] = (w >> j) & 1;
        }
        EXPECT_EQ(ripple_carry_equal(yb, zb, wb, f),
                  (y + z == w) ? 1u : 0u)
            << y << "+" << z << "=" << w;
      }
    }
  }
}

TEST(Conv3Sum, BruteKnownCase) {
  // A = [1,2,3,4,5,6]: A[1]+A[1]=A[2], A[1]+A[2]=A[3], A[2]+A[1]=A[3],
  // A[1]+A[3]=A[4] (i<=3 only), A[2]+A[2]=A[4], A[3]+A[1]=A[4], ...
  std::vector<u64> a = {1, 2, 3, 4, 5, 6};
  auto c = conv3sum_brute(a);
  // c_1: l with A[1]+A[l]=A[1+l]: l=1 (1+1=2), l=2 (1+2=3), l=3
  // (1+3=4) -> 3.
  EXPECT_EQ(c[0], 3u);
  // c_2: 2+1=3? A[3]=3 yes; 2+2=A[4]=4 yes; 2+3=A[5]=5 yes -> 3.
  EXPECT_EQ(c[1], 3u);
}

TEST(Conv3Sum, CamelotMatchesBrute) {
  std::mt19937_64 rng(4);
  for (int trial = 0; trial < 2; ++trial) {
    std::vector<u64> values(8);
    for (u64& v : values) v = rng() % 16;  // 4-bit values
    auto expect = conv3sum_brute(values);
    Conv3SumProblem problem(values, 5);  // 5 bits: sums can carry
    RunReport report = run_session(problem);
    ASSERT_TRUE(report.success) << trial;
    ASSERT_EQ(report.answers.size(), 4u);
    for (std::size_t i = 0; i < 4; ++i) {
      EXPECT_EQ(report.answers[i].to_u64(), expect[i]) << "i=" << i;
    }
  }
}

TEST(Conv3Sum, NoWitnesses) {
  std::vector<u64> values = {9, 9, 9, 9};  // 9+9=18 != 9
  Conv3SumProblem problem(values, 4);
  RunReport report = run_session(problem);
  ASSERT_TRUE(report.success);
  for (const BigInt& c : report.answers) EXPECT_TRUE(c.is_zero());
}

TEST(Csp2, BruteHistogramTotals) {
  Csp2Instance inst = Csp2Instance::random(6, 2, 5, 0.5, 1);
  auto hist = csp2_histogram_brute(inst);
  u64 total = 0;
  for (u64 h : hist) total += h;
  EXPECT_EQ(total, 64u);  // 2^6 assignments
}

TEST(Csp2, SequentialForm62MatchesBrute) {
  for (u64 seed = 1; seed <= 2; ++seed) {
    Csp2Instance inst = Csp2Instance::random(6, 2, 5, 0.55, seed);
    auto expect = csp2_histogram_brute(inst);
    auto got = csp2_histogram_form62(inst, strassen_decomposition());
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t k = 0; k < expect.size(); ++k) {
      EXPECT_EQ(got[k].to_u64(), expect[k]) << "seed=" << seed << " k=" << k;
    }
  }
}

TEST(Csp2, CamelotMatchesBrute) {
  Csp2Instance inst = Csp2Instance::random(6, 2, 4, 0.5, 7);
  auto expect = csp2_histogram_brute(inst);
  Csp2Problem problem(inst, strassen_decomposition());
  RunReport report = run_session(problem);
  ASSERT_TRUE(report.success);
  ASSERT_EQ(report.answers.size(), expect.size());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(report.answers[k].to_u64(), expect[k]) << "k=" << k;
  }
}

TEST(Csp2, TernaryAlphabet) {
  Csp2Instance inst = Csp2Instance::random(6, 3, 3, 0.4, 11);
  auto expect = csp2_histogram_brute(inst);
  auto got = csp2_histogram_form62(inst, strassen_decomposition());
  for (std::size_t k = 0; k < expect.size(); ++k) {
    EXPECT_EQ(got[k].to_u64(), expect[k]) << "k=" << k;
  }
}

}  // namespace
}  // namespace camelot
