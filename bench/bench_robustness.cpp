// E11 — robustness (paper §1.3 step 2): sweep the number of byzantine
// nodes. Within the decoding radius the proof is corrected and every
// corrupt node identified; beyond it, the failure is *detected*
// (decode failure or verification rejection) — never a wrong answer.
#include <cstdio>
#include <numeric>

#include "bench_util.hpp"
#include "core/proof_session.hpp"
#include "count/triangle_camelot.hpp"
#include "graph/brute.hpp"
#include "graph/generators.hpp"

using namespace camelot;

int main() {
  benchutil::header("E11: byzantine fault sweep (triangle proof, K=15)");
  Graph g = gnm(16, 40, 9);
  const u64 expect = count_triangles_brute(g);
  TriangleCountProblem problem(g, strassen_decomposition());
  ClusterConfig cfg;
  cfg.num_nodes = 15;
  cfg.redundancy = 2.0;  // radius ~ (e - d - 1)/2 ~ (d+1)/2 symbols

  std::printf("%8s %10s %10s %12s %14s %10s\n", "corrupt", "decoded",
              "verified", "answer-ok", "identified", "outcome");
  for (std::size_t faults = 0; faults <= 7; ++faults) {
    std::vector<std::size_t> corrupt(faults);
    std::iota(corrupt.begin(), corrupt.end(), std::size_t{0});
    ByzantineAdversary adversary(corrupt, ByzantineStrategy::kRandom,
                                 faults * 31 + 7);
    RunReport report = ProofSession(problem, cfg).run(&adversary);
    bool decoded = true, verified = true;
    for (const auto& pr : report.per_prime) {
      decoded = decoded && pr.decode_status == DecodeStatus::kOk;
      verified = verified && pr.verified;
    }
    const bool answer_ok =
        report.success &&
        TriangleCountProblem::triangles_from_answer(report.answers[0])
                .to_u64() == expect;
    const auto implicated = report.implicated_nodes();
    const bool identified = implicated == corrupt;
    const char* outcome = answer_ok           ? "corrected"
                          : (!decoded || !verified) ? "detected"
                                                    : "WRONG";
    std::printf("%8zu %10s %10s %12s %14s %10s\n", faults,
                decoded ? "yes" : "no", verified ? "yes" : "no",
                answer_ok ? "yes" : "no",
                report.success ? (identified ? "exact" : "partial") : "-",
                outcome);
  }
  std::printf("(redundancy 2.0: each node owns ~e/15 symbols, radius ~e/4 "
              "-> up to ~3 corrupt nodes correctable, more are detected)\n");
  return 0;
}
