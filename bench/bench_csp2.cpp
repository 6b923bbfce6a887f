// E10 — Theorem 12: enumerating 2-CSP assignments by the number of
// satisfied constraints with proofs of size O*(sigma^{omega n / 6}).
#include <cstdio>

#include "apps/csp2.hpp"
#include "bench_util.hpp"
#include "core/proof_session.hpp"

using namespace camelot;

int main() {
  TrilinearDecomposition dec = strassen_decomposition();
  ClusterConfig cfg;
  cfg.num_nodes = 6;
  cfg.redundancy = 1.25;

  benchutil::header("E10: 2-CSP enumeration by #satisfied (Theorem 12)");
  std::printf("%4s %6s %4s %10s %10s %12s %10s %8s\n", "n", "sigma", "m",
              "brute(s)", "seq(s)", "camelot(s)", "proof", "ok");
  for (auto [n, sigma, m] :
       std::vector<std::tuple<unsigned, unsigned, std::size_t>>{
           {6, 2, 5}, {12, 2, 6}, {6, 3, 5}}) {
    Csp2Instance inst = Csp2Instance::random(n, sigma, m, 0.5, n + sigma);
    std::vector<u64> expect;
    const double t_brute =
        benchutil::time_call([&] { expect = csp2_histogram_brute(inst); });
    std::vector<BigInt> seq;
    const double t_seq = benchutil::time_call(
        [&] { seq = csp2_histogram_form62(inst, dec); });
    Csp2Problem problem(inst, dec);
    RunReport report;
    const double t_cam = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    bool ok = report.success;
    for (std::size_t k = 0; ok && k <= m; ++k) {
      ok = report.answers[k].to_u64() == expect[k] &&
           seq[k].to_u64() == expect[k];
    }
    std::printf("%4u %6u %4zu %10.4f %10.4f %12.4f %10zu %8s\n", n, sigma,
                m, t_brute, t_seq, t_cam, report.proof_symbols,
                ok ? "yes" : "NO");
  }
  return 0;
}
