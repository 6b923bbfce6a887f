// Verifiable model counting: a *batch* of #CNFSAT instances through
// the orthogonal-vectors reduction (Theorem 8(1) / §A.2), served
// concurrently by a ProofService — spec-identical formulas share one
// cached PrimePlan and the per-prime field state — plus a
// tampered-proof rejection demo (eq. (2)).
#include <algorithm>
#include <bit>
#include <cstdio>

#include <future>
#include <vector>

#include "core/proof_service.hpp"
#include "core/verifier.hpp"
#include "exp/cnfsat.hpp"
#include "field/primes.hpp"
#include "rs/reed_solomon.hpp"

int main() {
  using namespace camelot;

  constexpr unsigned kBatch = 4;
  std::vector<CnfFormula> formulas;
  std::vector<std::shared_ptr<const CamelotProblem>> problems;
  for (unsigned i = 0; i < kBatch; ++i) {
    formulas.push_back(CnfFormula::random_ksat(/*num_vars=*/12,
                                               /*num_clauses=*/40,
                                               /*k=*/3, /*seed=*/99 + i));
    problems.emplace_back(make_cnfsat_problem(formulas.back()));
  }
  std::printf("batch of %u random 3-SAT instances: v=12 m=40\n", kBatch);

  ClusterConfig config;
  config.num_nodes = 8;

  ProofService service;  // worker pool + keyed plan/field caches
  std::vector<std::future<RunReport>> futures;
  for (const auto& p : problems) futures.push_back(service.submit(p, config));

  RunReport report;  // last report, reused for the stats below
  for (unsigned i = 0; i < kBatch; ++i) {
    report = futures[i].get();
    if (!report.success) {
      std::printf("instance %u failed\n", i);
      return 1;
    }
    BigInt models(0);
    for (const BigInt& c : report.answers) models += c;
    std::printf("  instance %u: verified #SAT = %-6s (brute force: %llu)\n",
                i, models.to_string().c_str(),
                static_cast<unsigned long long>(count_sat_brute(formulas[i])));
  }
  const ProofService::Stats stats = service.stats();
  std::printf("proof: %zu symbols over %zu primes; plan cache %zu hits / "
              "%zu misses across the batch\n",
              report.proof_symbols, report.num_primes, stats.plan_cache_hits,
              stats.plan_cache_misses);
  const CnfFormula& formula = formulas[0];
  const auto& problem = problems[0];

  // Independent verification demo: rebuild the honest proof over one
  // prime, tamper with one coefficient, and watch eq. (2) reject it.
  const ProofSpec spec = problem->spec();
  // The code's points are the powers of a primitive bit_ceil(d+1)-th
  // root of unity, so the prime needs that much two-adicity.
  PrimeField f(find_ntt_prime(
      spec.degree_bound + 2,
      std::max(8, std::countr_zero(std::bit_ceil(spec.degree_bound + 1)))));
  ReedSolomonCode code(f, spec.degree_bound, spec.degree_bound + 1);
  auto evaluator = problem->make_evaluator(f);
  std::vector<u64> word(code.length());
  for (std::size_t i = 0; i < word.size(); ++i) {
    word[i] = evaluator->eval(code.points()[i]);
  }
  Poly proof = code.interpolate_received(word);
  VerifyResult good = verify_proof_with(*evaluator, proof, 3, 1);
  Poly tampered = proof;
  tampered.c[7] = f.add(tampered.c[7], 1);
  VerifyResult bad = verify_proof_with(*evaluator, tampered, 3, 2);
  std::printf("honest proof accepted: %s; tampered proof accepted: %s\n",
              good.accepted ? "yes" : "no", bad.accepted ? "yes" : "no");
  return good.accepted && !bad.accepted ? 0 : 1;
}
