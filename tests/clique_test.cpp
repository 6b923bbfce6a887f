#include "count/clique.hpp"
#include "count/clique_camelot.hpp"

#include <gtest/gtest.h>

#include "core/proof_session.hpp"
#include "field/primes.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

namespace camelot {
namespace {

TEST(Clique, SubsetsOfSize) {
  auto s = subsets_of_size(4, 2);
  EXPECT_EQ(s.size(), 6u);  // C(4,2)
  EXPECT_EQ(s.front(), 0b0011u);
  EXPECT_EQ(s.back(), 0b1100u);
  EXPECT_EQ(subsets_of_size(5, 0), (std::vector<u64>{0}));
  EXPECT_EQ(subsets_of_size(3, 5).size(), 0u);
  EXPECT_EQ(subsets_of_size(20, 1).size(), 20u);
}

TEST(Clique, ChiMatrixForK6IsAdjacency) {
  // k = 6: blocks are single vertices, so chi_AB = [A~B adjacency].
  Graph g = gnp(7, 0.5, 1);
  Matrix chi = clique_chi_matrix(g, 6);
  ASSERT_EQ(chi.rows(), 7u);
  for (std::size_t u = 0; u < 7; ++u) {
    for (std::size_t v = 0; v < 7; ++v) {
      EXPECT_EQ(chi.at(u, v), u != v && g.has_edge(u, v) ? 1u : 0u);
    }
  }
}

TEST(Clique, ChiMatrixForK12PairBlocks) {
  Graph g = complete_graph(5);
  Matrix chi = clique_chi_matrix(g, 12);
  ASSERT_EQ(chi.rows(), 10u);  // C(5,2)
  // In K5 every pair of disjoint 2-sets forms a 4-clique.
  auto subs = subsets_of_size(5, 2);
  for (std::size_t i = 0; i < 10; ++i) {
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_EQ(chi.at(i, j), (subs[i] & subs[j]) == 0 && i != j ? 1u : 0u);
    }
  }
}

TEST(Clique, Multiplicity) {
  EXPECT_EQ(clique_multiplicity(6).to_u64(), 720u);          // 6!
  EXPECT_EQ(clique_multiplicity(12).to_u64(), 7'484'400u);   // 12!/2^6
}

TEST(Clique, DivideExactSmooth) {
  EXPECT_EQ(divide_exact_smooth(BigInt(720), BigInt(6)).to_i64(), 120);
  EXPECT_EQ(divide_exact_smooth(BigInt(0), BigInt(720)).to_i64(), 0);
  EXPECT_THROW(divide_exact_smooth(BigInt(7), BigInt(2)), std::logic_error);
}

class CliqueGraphs : public ::testing::TestWithParam<u64> {};

TEST_P(CliqueGraphs, K6CountsMatchBruteForce) {
  Graph g = gnp(8, 0.6, GetParam());
  const u64 expect = count_k_cliques_brute(g, 6);
  TrilinearDecomposition dec = strassen_decomposition();
  EXPECT_EQ(count_k_cliques_form62(g, 6, dec).to_u64(), expect);
  EXPECT_EQ(count_k_cliques_nesetril_poljak(g, 6).to_u64(), expect);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CliqueGraphs, ::testing::Values(1, 2, 3, 4));

TEST(Clique, K6DenseGraphs) {
  // K8 has C(8,6) = 28 six-cliques.
  TrilinearDecomposition dec = strassen_decomposition();
  EXPECT_EQ(count_k_cliques_form62(complete_graph(8), 6, dec).to_u64(), 28u);
  // Bipartite graphs have no triangles, let alone 6-cliques.
  EXPECT_EQ(count_k_cliques_form62(complete_bipartite(4, 4), 6, dec).to_u64(),
            0u);
}

TEST(Clique, K12MatchesBruteForceViaNesetrilPoljak) {
  Graph g = planted_clique(7, 0.7, 6, 5);
  const u64 expect = count_k_cliques_brute(g, 12);
  EXPECT_EQ(count_k_cliques_nesetril_poljak(g, 12).to_u64(), expect);
  // A 12-clique needs 12 vertices; on 7 vertices the count is 0, so
  // also exercise a graph that *has* 12-cliques.
  Graph k13 = complete_graph(13);
  // C(13,12) = 13.
  EXPECT_EQ(count_k_cliques_nesetril_poljak(k13, 12).to_u64(), 13u);
}

TEST(CliqueCamelot, EvaluationsAtRankPointsSumToForm) {
  // The proof polynomial satisfies Theorem 13:
  // sum_{r=1..R} P(r) = X(6,2).
  Graph g = gnp(6, 0.7, 7);
  TrilinearDecomposition dec = strassen_decomposition();
  CliqueCountProblem problem(g, 6, dec);
  PrimeField f(find_ntt_prime(4096, 8));
  auto ev = problem.make_evaluator(f);
  u64 sum = 0;
  for (u64 r = 1; r <= problem.rank(); ++r) {
    sum = f.add(sum, ev->eval(r));
  }
  Matrix chi = clique_chi_matrix(g, 6);
  const unsigned t = kronecker_exponent(2, chi.rows());
  Form62Input padded =
      form62_padded(Form62Input::uniform(chi), ipow(2, t));
  EXPECT_EQ(sum, form62_new_circuit(padded, dec, t, f));
}

// Reduced-size end-to-end run for the sanitizer job: K6 is the
// smallest graph with a 6-clique, so the Kronecker power is the
// minimal t = 3 and the whole pipeline (prepare through CRT
// reconstruction) finishes in milliseconds even under ASan. CMake
// registers this suite (minus the K12 brute-force comparison) as
// `clique_test_small`; CI runs it sanitized instead of excluding
// clique coverage wholesale.
TEST(CliqueCamelotSmall, SessionRunSmallKroneckerPower) {
  Graph g = complete_graph(6);  // exactly one 6-clique
  TrilinearDecomposition dec = strassen_decomposition();
  CliqueCountProblem problem(g, 6, dec);
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 1.5;
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(problem.cliques_from_answer(report.answers[0]).to_u64(), 1u);
}

TEST(CliqueCamelot, SessionRunCountsSixCliques) {
  Graph g = planted_clique(8, 0.4, 6, 3);
  const u64 expect = count_k_cliques_brute(g, 6);
  ASSERT_GE(expect, 1u);
  TrilinearDecomposition dec = strassen_decomposition();
  CliqueCountProblem problem(g, 6, dec);
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.redundancy = 1.3;
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(problem.cliques_from_answer(report.answers[0]).to_u64(), expect);
  // Proof size matches Theorem 1's O(R) = O(N^omega) shape: d+1 <= 3R.
  EXPECT_LE(report.proof_symbols, 3 * problem.rank());
}

TEST(CliqueCamelot, ByzantineNodesToleratedAndCaught) {
  Graph g = gnp(7, 0.55, 9);
  const u64 expect = count_k_cliques_brute(g, 6);
  TrilinearDecomposition dec = strassen_decomposition();
  CliqueCountProblem problem(g, 6, dec);
  ClusterConfig cfg;
  cfg.num_nodes = 12;
  cfg.redundancy = 2.0;
  ByzantineAdversary adversary({2, 9}, ByzantineStrategy::kRandom, 123);
  RunReport report = ProofSession(problem, cfg).run(&adversary);
  ASSERT_TRUE(report.success);
  EXPECT_EQ(problem.cliques_from_answer(report.answers[0]).to_u64(), expect);
  EXPECT_EQ(report.implicated_nodes(), (std::vector<std::size_t>{2, 9}));
}

TEST(CliqueCamelot, RejectsTooSmallGraph) {
  Graph g(3);  // no 6-vertex cliques possible, chi would be 3x3 though
  TrilinearDecomposition dec = strassen_decomposition();
  // Should still construct (N = 3) and return zero cliques.
  CliqueCountProblem problem(g, 6, dec);
  ClusterConfig cfg;
  cfg.num_nodes = 2;
  RunReport report = ProofSession(problem, cfg).run();
  ASSERT_TRUE(report.success);
  EXPECT_EQ(problem.cliques_from_answer(report.answers[0]).to_u64(), 0u);
}

}  // namespace
}  // namespace camelot
