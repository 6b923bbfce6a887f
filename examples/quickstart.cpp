// Quickstart: verifiably count the 6-cliques of a graph on a simulated
// Round Table of 8 Knights.
//
//   1. Build a graph and wrap it as a CamelotProblem (Theorem 1).
//   2. Drive the staged ProofSession: nodes evaluate the proof
//      polynomial (prepare), the codeword is broadcast (transport),
//      decoded, spot-checked (verify), and CRT-reconstructed.
//   3. Read the verified integer answer.
#include <cstdio>

#include "core/proof_session.hpp"
#include "count/clique_camelot.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

int main() {
  using namespace camelot;

  // A random graph with a planted 7-clique (so 6-cliques exist).
  Graph g = planted_clique(/*n=*/8, /*p=*/0.4, /*clique_size=*/7,
                           /*seed=*/2026);
  std::printf("graph: n=%zu m=%zu\n", g.num_vertices(), g.num_edges());

  // The Camelot problem: proof polynomial from §5.2, evaluation
  // algorithm from §5.3, matrix multiplication tensor = Strassen.
  CliqueCountProblem problem(g, /*k=*/6, strassen_decomposition());

  ClusterConfig config;
  config.num_nodes = 8;      // Knights around the table
  config.redundancy = 1.5;   // codeword length e ~ 1.5 (d+1)

  // The staged pipeline, one stage per paper step. (The one-shot
  // `ProofSession(problem, config).run()` yields the same report,
  // overlapping the stages across primes.)
  ProofSession session(problem, config);
  session.prepare();    // step 1: per-node symbol chunks
  session.transport();  // broadcast bus (lossless here)
  session.decode();     // step 2: Gao decode + node implication
  session.verify();     // step 3: random spot checks
  session.recover();    // residues per prime

  RunReport report = session.report();  // CRT across primes
  if (!report.success) {
    std::puts("proof preparation FAILED (decode or verification)");
    return 1;
  }

  const BigInt cliques = problem.cliques_from_answer(report.answers[0]);
  std::printf("verified 6-clique count: %s\n", cliques.to_string().c_str());
  std::printf("  proof size: %zu symbols x %zu primes, codeword e=%zu\n",
              report.proof_symbols, report.num_primes, report.code_length);
  std::printf("  independent check (brute force): %llu\n",
              static_cast<unsigned long long>(count_k_cliques_brute(g, 6)));
  return 0;
}
