// E6 — Theorem 7: the Tutte polynomial via the Potts grid Z(t, r),
// proof size O*(2^{n/3}) blocks, per-node matrix products of size
// 2^{n/3} (the omega dependence).
#include <cstdio>

#include "bench_util.hpp"
#include "core/proof_session.hpp"
#include "exp/tutte.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

using namespace camelot;

int main() {
  benchutil::header("E6: Tutte polynomial via Potts grid (Theorem 7)");
  std::printf("%4s %4s %10s %12s %10s %10s %8s\n", "n", "m", "seq(s)",
              "camelot(s)", "proof", "2^{n/3}", "agree");
  for (std::size_t n : {6u}) {
    Graph g = gnm(n, 8, 3);
    std::vector<BigInt> grid;
    const double t_seq =
        benchutil::time_call([&] { grid = potts_grid_ie(g); });
    TutteProblem problem(g);
    ClusterConfig cfg;
    cfg.num_nodes = 6;
    cfg.redundancy = 1.2;
    RunReport report;
    const double t_cam = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    bool agree = report.success && report.answers.size() == grid.size();
    for (std::size_t i = 0; agree && i < grid.size(); ++i) {
      agree = report.answers[i] == grid[i];
    }
    std::printf("%4zu %4zu %10.4f %12.4f %10zu %10llu %8s\n", n,
                g.num_edges(), t_seq, t_cam, report.proof_symbols,
                static_cast<unsigned long long>(1ull << (n / 3)),
                agree ? "yes" : "NO");
    if (agree) {
      // Spot values through Fortuin-Kasteleyn: T(1,1) = spanning
      // trees, via Z at (t,r) = (x-1)(y-1), y-1 — cross-check two
      // grid cells against deletion-contraction.
      const BigInt t22 = tutte_value_delcontract(g, 2, 2);
      const BigInt z11 = report.answers[problem.grid_index(1, 1)];
      std::printf("  FK check: Z(1,1) = %s, (x-1)(y-1)^n T(2,2) = %s\n",
                  z11.to_string().c_str(), t22.to_string().c_str());
    }
  }
  return 0;
}
