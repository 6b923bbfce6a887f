// E7 — Theorem 8: #CNFSAT, permanent, Hamilton cycles with proofs of
// size O*(2^{n/2}) prepared in time O*(2^{n/2}) per node.
#include <cstdio>

#include "bench_util.hpp"
#include "core/proof_session.hpp"
#include "exp/cnfsat.hpp"
#include "exp/hamilton.hpp"
#include "exp/permanent.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

using namespace camelot;

namespace {

void report_row(const char* name, std::size_t n, double t_seq, double t_cam,
                std::size_t proof, bool ok) {
  std::printf("%-12s %4zu %10.4f %12.4f %10zu %10llu %8s\n", name, n, t_seq,
              t_cam, proof, static_cast<unsigned long long>(1ull << (n / 2)),
              ok ? "yes" : "NO");
}

}  // namespace

int main() {
  benchutil::header("E7: #P-hard counting at O*(2^{n/2}) (Theorem 8)");
  std::printf("%-12s %4s %10s %12s %10s %10s %8s\n", "problem", "n",
              "seq(s)", "camelot(s)", "proof", "2^{n/2}", "ok");
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.redundancy = 1.25;

  // Permanent (Theorem 8(2)) vs Ryser.
  for (std::size_t n : {8u, 10u, 12u}) {
    IntMatrix m = IntMatrix::random(n, 3, n);
    BigInt seq;
    const double t_seq =
        benchutil::time_call([&] { seq = permanent_ryser(m); });
    PermanentProblem problem(m);
    RunReport report;
    const double t_cam = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    report_row("permanent", n, t_seq, t_cam, report.proof_symbols,
               report.success && report.answers[0] == seq);
  }

  // #CNFSAT (Theorem 8(1)) vs 2^v enumeration.
  for (u32 v : {10u, 12u, 14u}) {
    CnfFormula formula = CnfFormula::random_ksat(v, 3 * v, 3, v);
    u64 seq = 0;
    const double t_seq =
        benchutil::time_call([&] { seq = count_sat_brute(formula); });
    auto problem = make_cnfsat_problem(formula);
    RunReport report;
    const double t_cam = benchutil::time_call(
        [&] { report = ProofSession(*problem, cfg).run(); });
    BigInt total(0);
    if (report.success) {
      for (const BigInt& c : report.answers) total += c;
    }
    report_row("#cnfsat", v, t_seq, t_cam, report.proof_symbols,
               report.success && total.to_u64() == seq);
  }

  // Hamilton cycles (Theorem 8(3)) vs permutation DFS.
  for (std::size_t n : {8u, 10u}) {
    Graph g = gnp(n, 0.6, n + 3);
    u64 seq = 0;
    const double t_seq =
        benchutil::time_call([&] { seq = count_hamilton_cycles_brute(g); });
    HamiltonCycleProblem problem(g);
    RunReport report;
    const double t_cam = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    const bool ok =
        report.success &&
        HamiltonCycleProblem::undirected_from_answer(report.answers[0])
                .to_u64() == seq;
    report_row("hamilton", n, t_seq, t_cam, report.proof_symbols, ok);
  }
  return 0;
}
