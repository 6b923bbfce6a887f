// E12 — verification soundness (paper §1.3 step 3, eq. (2)): the
// probability that a single random-point check accepts a *wrong*
// proof is at most d/q. Measure the empirical acceptance rate of
// randomly corrupted proofs and compare with the bound.
#include <algorithm>
#include <bit>
#include <cstdio>
#include <random>

#include "apps/ov.hpp"
#include "bench_util.hpp"
#include "core/prime_plan.hpp"
#include "core/verifier.hpp"
#include "field/primes.hpp"
#include "rs/reed_solomon.hpp"

using namespace camelot;

int main() {
  benchutil::header("E12: soundness of the random-point check");
  BoolMatrix a = BoolMatrix::random(12, 6, 0.4, 1);
  BoolMatrix b = BoolMatrix::random(12, 6, 0.4, 2);
  OrthogonalVectorsProblem problem(a, b);
  const ProofSpec spec = problem.spec();

  std::printf("%12s %8s %12s %14s %14s\n", "q", "d", "trials",
              "accept-rate", "bound d/q");
  for (u64 qmin : {u64{500}, u64{2000}, u64{16000}}) {
    // The code's points are the powers of a primitive bit_ceil(d+1)-th
    // root of unity, so the prime needs that much two-adicity.
    const u64 q = find_ntt_prime(
        std::max(qmin, spec.degree_bound + 2),
        std::max(4, std::countr_zero(std::bit_ceil(spec.degree_bound + 1))));
    PrimeField f(q);
    // The true proof: interpolate from honest evaluations.
    ReedSolomonCode code(f, spec.degree_bound, spec.degree_bound + 1);
    auto evaluator = problem.make_evaluator(f);
    std::vector<u64> word(code.length());
    for (std::size_t i = 0; i < word.size(); ++i) {
      word[i] = evaluator->eval(code.points()[i]);
    }
    Poly proof = code.interpolate_received(word);

    std::mt19937_64 rng(q);
    const int corruptions = 400;
    int accepted = 0;
    for (int c = 0; c < corruptions; ++c) {
      Poly bad = proof;
      const std::size_t idx = rng() % (spec.degree_bound + 1);
      bad.c.resize(spec.degree_bound + 1, 0);
      bad.c[idx] = f.add(bad.c[idx], 1 + rng() % (f.modulus() - 1));
      bad.trim();
      VerifyResult vr = verify_proof_with(*evaluator, bad, 1, rng());
      accepted += vr.accepted ? 1 : 0;
    }
    std::printf("%12llu %8llu %12d %14.5f %14.5f\n",
                static_cast<unsigned long long>(q),
                static_cast<unsigned long long>(spec.degree_bound),
                corruptions, static_cast<double>(accepted) / corruptions,
                static_cast<double>(spec.degree_bound) /
                    static_cast<double>(q));
  }
  std::printf("(a correct proof is always accepted; the rate for wrong "
              "proofs must sit below d/q and shrink as q grows)\n");
  return 0;
}
