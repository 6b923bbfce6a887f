// E5 — Theorem 6: the chromatic polynomial with proof size and
// per-node time O*(2^{n/2}) vs the O*(2^n) sequential baseline.
#include <cstdio>

#include "bench_util.hpp"
#include "core/proof_session.hpp"
#include "exp/chromatic.hpp"
#include "graph/generators.hpp"

using namespace camelot;

int main() {
  benchutil::header("E5: chromatic polynomial (Theorem 6)");
  std::printf("%4s %10s %10s %10s %12s %10s %8s\n", "n", "2^n", "2^{n/2}",
              "seq(s)", "camelot(s)", "proof", "agree");
  for (std::size_t n : {6u, 8u, 10u}) {
    Graph g = gnp(n, 0.5, n * 7);
    std::vector<BigInt> baseline;
    const double t_seq =
        benchutil::time_call([&] { baseline = chromatic_values_ie(g); });
    ChromaticProblem problem(g);
    ClusterConfig cfg;
    cfg.num_nodes = 8;
    cfg.redundancy = 1.25;
    RunReport report;
    const double t_cam = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    bool agree = report.success;
    for (std::size_t t = 1; agree && t <= n + 1; ++t) {
      agree = report.answers[t - 1] == baseline[t - 1];
    }
    std::printf("%4zu %10llu %10llu %10.4f %12.4f %10zu %8s\n", n,
                static_cast<unsigned long long>(1ull << n),
                static_cast<unsigned long long>(1ull << (n / 2)), t_seq,
                t_cam, report.proof_symbols, agree ? "yes" : "NO");
  }
  std::printf("(proof symbols per prime bundle chi(1..n+1); Theorem 6 "
              "shape: proof ~ (n+1) * |B| 2^{|B|-1} = O*(2^{n/2}))\n");
  return 0;
}
