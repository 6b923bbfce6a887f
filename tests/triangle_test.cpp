#include "count/ayz.hpp"
#include "count/triangle.hpp"
#include "count/triangle_camelot.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <vector>

#include "core/proof_session.hpp"
#include "field/primes.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"
#include "poly/lagrange.hpp"

namespace camelot {
namespace {

TEST(Triangle, ItaiRodehKnownGraphs) {
  EXPECT_EQ(count_triangles_itai_rodeh(complete_graph(6)), 20u);
  EXPECT_EQ(count_triangles_itai_rodeh(cycle_graph(3)), 1u);
  EXPECT_EQ(count_triangles_itai_rodeh(cycle_graph(8)), 0u);
  EXPECT_EQ(count_triangles_itai_rodeh(complete_bipartite(4, 5)), 0u);
  EXPECT_EQ(count_triangles_itai_rodeh(petersen_graph()), 0u);
}

class TriangleSeeds : public ::testing::TestWithParam<u64> {};

TEST_P(TriangleSeeds, ItaiRodehMatchesBrute) {
  Graph g = gnp(30, 0.3, GetParam());
  EXPECT_EQ(count_triangles_itai_rodeh(g), count_triangles_brute(g));
}

TEST_P(TriangleSeeds, SplitSparseMatchesBruteStrassen) {
  Graph g = gnp(20, 0.25, GetParam() + 10);
  if (g.num_edges() == 0) return;
  SplitSparseStats stats;
  const u64 got =
      count_triangles_split_sparse(g, strassen_decomposition(), &stats);
  EXPECT_EQ(got, count_triangles_brute(g));
  // Theorem 4 shape: parts * part_size = R, each part ~O(m) values.
  EXPECT_EQ(stats.num_parts * stats.part_size, stats.rank);
  EXPECT_GE(stats.part_size, std::min<u64>(stats.sparse_entries, stats.rank) /
                                 7);
}

TEST_P(TriangleSeeds, SplitSparseMatchesBruteNaive) {
  Graph g = gnp(12, 0.4, GetParam() + 20);
  if (g.num_edges() == 0) return;
  EXPECT_EQ(count_triangles_split_sparse(g, naive_decomposition(2), nullptr),
            count_triangles_brute(g));
}

TEST_P(TriangleSeeds, AyzMatchesBrute) {
  Graph g = hub_graph(40, 60, 3, GetParam() + 30);
  AyzStats stats;
  EXPECT_EQ(count_triangles_ayz(g, strassen_decomposition(), &stats),
            count_triangles_brute(g));
  EXPECT_EQ(stats.high_triangles + stats.low_triangles,
            count_triangles_brute(g));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TriangleSeeds, ::testing::Values(1, 2, 3, 4));

TEST(Triangle, SplitSparseEllSweepAgrees) {
  // Every split point ell gives the same count (different
  // parallelism/space tradeoffs, §3.2).
  Graph g = gnp(10, 0.5, 5);
  PrimeField f(next_prime(10 * 10 * 10 + 7));
  TrilinearDecomposition dec = strassen_decomposition();
  const u64 expect = count_triangles_brute(g);
  for (int ell = 0; ell <= 4; ++ell) {
    SplitSparseStats stats;
    EXPECT_EQ(count_triangles_split_sparse(g, dec, f, &stats, ell), expect)
        << "ell=" << ell;
  }
}

TEST(Triangle, AyzHandlesEdgeCases) {
  AyzStats stats;
  EXPECT_EQ(count_triangles_ayz(empty_graph(5), strassen_decomposition(),
                                &stats),
            0u);
  EXPECT_EQ(count_triangles_ayz(complete_graph(10), strassen_decomposition(),
                                nullptr),
            120u);  // C(10,3)
  EXPECT_EQ(count_triangles_ayz(star_graph(20), strassen_decomposition(),
                                nullptr),
            0u);
}

TEST(TriangleCamelot, ProofEvaluationsSumToTrace) {
  Graph g = gnp(9, 0.5, 6);
  ASSERT_GT(g.num_edges(), 0u);
  TriangleCountProblem problem(g, strassen_decomposition());
  PrimeField f(find_ntt_prime(problem.spec().min_modulus + 2048, 8));
  auto ev = problem.make_evaluator(f);
  u64 sum = 0;
  for (u64 z = 1; z <= problem.num_outer(); ++z) {
    sum = f.add(sum, ev->eval(z));
  }
  EXPECT_EQ(sum, f.reduce(6 * count_triangles_brute(g)));
}

std::vector<u64> transposed(const std::vector<u64>& tab, std::size_t rows,
                            std::size_t cols) {
  std::vector<u64> out(rows * cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) out[j * rows + i] = tab[i * cols + j];
  }
  return out;
}

TEST(TriangleCamelot, EvaluatePointsMatchesPerPointOracle) {
  // The oracle builds P(z) from its definition, one point at a time:
  // A_{r'}(z) = sum_o part_A(o)[r'] L_o(z) from the split/sparse parts
  // and a one-shot Lagrange basis over the outer nodes 1..R/m',
  // likewise B and C, then P(z) = sum_{r'} A B C. No extension, no
  // block, no lanes.
  const Graph g = gnm(32, 60, 11);
  const TrilinearDecomposition dec = strassen_decomposition();
  const TriangleCountProblem problem(g, dec);
  const u64 outer = problem.num_outer();
  const u64 inner = problem.part_size();
  ASSERT_GT(outer, kPointBlock);  // the basis spans several blocks' rows
  const unsigned t = kronecker_exponent(dec.n0, g.num_vertices());
  const std::vector<SparseEntry> entries =
      adjacency_sparse_interleaved(g, dec.n0, t);
  const std::size_t nn = dec.n0 * dec.n0;
  const std::size_t b = kPointBlock;
  for (u64 q : {next_prime(u64{1} << 20), next_prime(u64{1} << 31)}) {
    const PrimeField f(q);
    // parts[s][o * inner + r'] = part o of table s (alpha, beta, gamma).
    std::vector<std::vector<u64>> parts;
    for (const std::vector<u64>& table :
         {dec.alpha_mod(f), dec.beta_mod(f), dec.gamma_mod(f)}) {
      const SplitSparseYates ss(f, transposed(table, nn, dec.rank), dec.rank,
                                nn, t, entries,
                                static_cast<int>(problem.ell()));
      ASSERT_EQ(ss.num_parts(), outer);
      std::vector<u64>& flat = parts.emplace_back();
      for (u64 o = 0; o < outer; ++o) {
        const std::vector<u64> part = ss.part(o);
        flat.insert(flat.end(), part.begin(), part.end());
      }
    }
    const auto oracle = [&](u64 z) {
      const std::vector<u64> l = lagrange_basis_consecutive(1, outer, z, f);
      u64 sum = 0;
      for (u64 r = 0; r < inner; ++r) {
        u64 abc = f.one();
        for (const std::vector<u64>& flat : parts) {
          u64 v = 0;
          for (u64 o = 0; o < outer; ++o) {
            v = f.add(v, f.mul(flat[o * inner + r], l[o]));
          }
          abc = f.mul(abc, v);
        }
        sum = f.add(sum, abc);
      }
      return sum;
    };
    // The node boundaries 1 and R/m', the points just outside the
    // outer domain, the field's ends, then pseudo-random points.
    std::vector<u64> pool = {0, 1, outer, outer + 1, q - 1, 2 * outer};
    std::mt19937_64 rng(q);
    while (pool.size() < 2 * b + 3) pool.push_back(rng() % q);
    std::vector<u64> want(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i) want[i] = oracle(pool[i]);

    for (FieldBackend backend :
         {FieldBackend::kMontgomery, FieldBackend::kPrimeDivision,
          FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512}) {
      const auto ev = problem.make_evaluator(FieldOps(f, backend));
      // Every pool point at every position of chunks of each length
      // (wrapping around the pool).
      for (std::size_t len : {std::size_t{1}, b - 1, b, b + 1, 2 * b + 3}) {
        for (std::size_t start = 0; start < pool.size(); start += len) {
          std::vector<u64> chunk(len);
          for (std::size_t i = 0; i < len; ++i) {
            chunk[i] = pool[(start + i) % pool.size()];
          }
          const std::vector<u64> got = ev->evaluate_points(chunk);
          ASSERT_EQ(got.size(), len);
          for (std::size_t i = 0; i < len; ++i) {
            EXPECT_EQ(got[i], want[(start + i) % pool.size()])
                << "q=" << q << " backend=" << static_cast<int>(backend)
                << " len=" << len << " x=" << chunk[i];
          }
        }
      }
      for (std::size_t i = 0; i < pool.size(); ++i) {
        const u64 x = pool[i];
        EXPECT_EQ(ev->eval(x), ev->evaluate_points({&x, 1})[0]) << "x=" << x;
        EXPECT_EQ(ev->eval(x), want[i]) << "x=" << x;
      }
    }
  }
}

TEST(TriangleCamelot, SessionRunCountsTriangles) {
  Graph g = gnm(16, 40, 7);
  const u64 expect = count_triangles_brute(g);
  TriangleCountProblem problem(g, strassen_decomposition());
  ClusterConfig cfg;
  cfg.num_nodes = 6;
  cfg.redundancy = 1.5;
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(
      TriangleCountProblem::triangles_from_answer(report.answers[0]).to_u64(),
      expect);
}

TEST(TriangleCamelot, SparserGraphSmallerProof) {
  // Theorem 3: proof size O(n^omega / m) — for fixed n, more edges
  // means a *smaller* outer domain (larger m' parts).
  Graph sparse = gnm(32, 20, 8);
  Graph dense = gnm(32, 300, 8);
  TriangleCountProblem p_sparse(sparse, strassen_decomposition());
  TriangleCountProblem p_dense(dense, strassen_decomposition());
  EXPECT_GE(p_sparse.num_outer(), p_dense.num_outer());
  EXPECT_LE(p_sparse.part_size(), p_dense.part_size());
}

TEST(TriangleCamelot, ByzantineToleratedOnTriangles) {
  Graph g = gnm(12, 30, 9);
  const u64 expect = count_triangles_brute(g);
  TriangleCountProblem problem(g, strassen_decomposition());
  ClusterConfig cfg;
  cfg.num_nodes = 9;
  cfg.redundancy = 2.5;
  ByzantineAdversary adversary({4}, ByzantineStrategy::kColludingPolynomial,
                               55);
  RunReport report = ProofSession(problem, cfg).run(&adversary);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(
      TriangleCountProblem::triangles_from_answer(report.answers[0]).to_u64(),
      expect);
  EXPECT_EQ(report.implicated_nodes(), (std::vector<std::size_t>{4}));
}

// Paper §1.3 step 2 at the radius boundary: 0..7 random traitors on
// nodes 0..f-1 of K = 15 at redundancy 2. While the traitors' chunks
// total at most the decoding radius the proof is corrected and the
// traitors identified exactly; past it every prime fails decode or
// verification, so the session reports failure and never a wrong
// count. The boundary comes from the radius and the chunk sizes.
TEST(TriangleCamelot, ByzantineSweepCorrectsWithinRadiusDetectsBeyond) {
  const Graph g = gnm(16, 40, 9);
  const u64 expect = count_triangles_brute(g);
  TriangleCountProblem problem(g, strassen_decomposition());
  ClusterConfig cfg;
  cfg.num_nodes = 15;
  cfg.redundancy = 2.0;
  std::size_t corrected = 0, detected = 0;
  for (std::size_t faults = 0; faults <= 7; ++faults) {
    std::vector<std::size_t> corrupt(faults);
    std::iota(corrupt.begin(), corrupt.end(), std::size_t{0});
    ByzantineAdversary adversary(corrupt, ByzantineStrategy::kRandom,
                                 faults * 31 + 7);
    ProofSession session(problem, cfg);
    const RunReport report = session.run(&adversary);
    const std::size_t e = session.plan().code_length;
    const std::size_t radius = (e - problem.spec().degree_bound - 1) / 2;
    std::size_t symbols = 0;
    for (std::size_t node : corrupt) {
      const auto [lo, hi] = node_chunk(node, e, cfg.num_nodes);
      symbols += hi - lo;
    }
    if (symbols <= radius) {
      ++corrected;
      ASSERT_TRUE(report.success) << faults << " traitors";
      const BigInt& answer = report.answers[0];
      const u64 got =
          TriangleCountProblem::triangles_from_answer(answer).to_u64();
      EXPECT_EQ(got, expect) << faults << " traitors";
      EXPECT_EQ(report.implicated_nodes(), corrupt) << faults << " traitors";
    } else {
      ++detected;
      EXPECT_FALSE(report.success) << faults << " traitors";
      for (const PrimeRunReport& pr : report.per_prime) {
        EXPECT_TRUE(pr.decode_status != DecodeStatus::kOk || !pr.verified)
            << faults << " traitors";
      }
    }
  }
  // The sweep straddles the boundary.
  EXPECT_GT(corrected, 1u);
  EXPECT_GT(detected, 0u);
}

TEST(TriangleCamelot, RejectsEmptyGraph) {
  EXPECT_THROW(TriangleCountProblem(empty_graph(4), strassen_decomposition()),
               std::invalid_argument);
}

TEST(TriangleCamelot, TrianglesFromAnswerValidates) {
  EXPECT_EQ(TriangleCountProblem::triangles_from_answer(BigInt(18)).to_i64(),
            3);
  EXPECT_THROW(TriangleCountProblem::triangles_from_answer(BigInt(7)),
               std::logic_error);
}

}  // namespace
}  // namespace camelot
