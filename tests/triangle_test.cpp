#include "count/ayz.hpp"
#include "count/triangle.hpp"
#include "count/triangle_camelot.hpp"

#include <gtest/gtest.h>

#include "core/proof_session.hpp"
#include "field/primes.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

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
