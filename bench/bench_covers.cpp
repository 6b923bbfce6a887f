// E8 — Theorems 9 & 10: counting set covers (polynomial-size family)
// and exact covers (exponential-size family) with O*(2^{n/2}) proofs.
#include <algorithm>
#include <cstdio>
#include <random>

#include "bench_util.hpp"
#include "core/proof_session.hpp"
#include "exp/setcover.hpp"
#include "exp/setpartition.hpp"

using namespace camelot;

namespace {

std::vector<u64> random_family(std::size_t n, std::size_t count, u64 seed) {
  std::mt19937_64 rng(seed);
  std::vector<u64> fam;
  while (fam.size() < count) {
    const u64 mask = rng() & ((u64{1} << n) - 1);
    if (mask != 0) fam.push_back(mask);
  }
  std::sort(fam.begin(), fam.end());
  fam.erase(std::unique(fam.begin(), fam.end()), fam.end());
  return fam;
}

}  // namespace

int main() {
  ClusterConfig cfg;
  cfg.num_nodes = 8;
  cfg.redundancy = 1.25;

  benchutil::header("E8a: t-element set covers (Theorem 9)");
  std::printf("%4s %4s %4s %12s %10s %8s\n", "n", "|F|", "t", "camelot(s)",
              "proof", "ok");
  for (std::size_t n : {8u, 10u, 12u}) {
    auto fam = random_family(n, 8, n);
    const u64 t = 3;
    SetCoverProblem problem(n, fam, t);
    RunReport report;
    const double t_cam = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    const bool ok = report.success &&
                    report.answers[0] == count_set_covers_brute(n, fam, t);
    std::printf("%4zu %4zu %4llu %12.4f %10zu %8s\n", n, fam.size(),
                static_cast<unsigned long long>(t), t_cam,
                report.proof_symbols, ok ? "yes" : "NO");
  }

  benchutil::header("E8b: exact covers / set partitions (Theorem 10)");
  std::printf("%4s %4s %4s %12s %10s %8s\n", "n", "|F|", "t", "camelot(s)",
              "proof", "ok");
  for (std::size_t n : {8u, 10u, 12u}) {
    // Exponential-size family: all subsets of size <= 3 plus randoms.
    auto fam = random_family(n, (std::size_t{1} << (n / 2)), n + 1);
    const u64 t = 4;
    ExactCoverProblem problem(n, fam, t);
    RunReport report;
    const double t_cam = benchutil::time_call(
        [&] { report = ProofSession(problem, cfg).run(); });
    const bool ok =
        report.success &&
        ExactCoverProblem::partitions_from_answer(report.answers[0], t)
                .to_u64() == count_exact_covers_brute(n, fam, t);
    std::printf("%4zu %4zu %4llu %12.4f %10zu %8s\n", n, fam.size(),
                static_cast<unsigned long long>(t), t_cam,
                report.proof_symbols, ok ? "yes" : "NO");
  }
  return 0;
}
