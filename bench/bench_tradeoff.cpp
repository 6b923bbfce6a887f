// E13 — the smooth speedup tradeoff of §1.4: E = T/K. Sweep the node
// count K on a fixed proof; per-node work (symbols and time) must
// fall like 1/K while the total work E*K stays flat, and the chunks
// stay balanced (the "intrinsically workload-balanced" claim).
#include <cstdio>

#include "bench_util.hpp"
#include "core/proof_session.hpp"
#include "count/clique_camelot.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

using namespace camelot;

int main() {
  benchutil::header("E13: speedup tradeoff E = T/K (6-clique proof)");
  Graph g = gnp(8, 0.6, 4);
  const u64 expect = count_k_cliques_brute(g, 6);
  CliqueCountProblem problem(g, 6, strassen_decomposition());

  std::printf("%4s %10s %12s %12s %12s %10s %8s\n", "K", "sym/node",
              "node-max(s)", "node-sum(s)", "balance", "wall(s)", "ok");
  for (std::size_t k : {1u, 2u, 4u, 8u, 16u, 32u}) {
    ClusterConfig cfg;
    cfg.num_nodes = k;
    cfg.redundancy = 1.3;
    RunReport report = ProofSession(problem, cfg).run();
    double node_max = 0, node_sum = 0;
    std::size_t sym_max = 0, sym_min = SIZE_MAX;
    for (const auto& ns : report.node_stats) {
      node_max = std::max(node_max, ns.seconds);
      node_sum += ns.seconds;
      sym_max = std::max(sym_max, ns.symbols_computed);
      sym_min = std::min(sym_min, ns.symbols_computed);
    }
    const bool ok =
        report.success &&
        problem.cliques_from_answer(report.answers[0]).to_u64() == expect;
    std::printf("%4zu %10zu %12.4f %12.4f %9zu/%zu %10.4f %8s\n", k,
                report.code_length * report.num_primes / k, node_max,
                node_sum, sym_min, sym_max, report.wall_seconds,
                ok ? "yes" : "NO");
  }
  std::printf("(node-max ~ T/K; node-sum ~ T flat; balance min/max within "
              "one symbol per prime)\n");
  return 0;
}
