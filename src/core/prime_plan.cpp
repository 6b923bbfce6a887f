#include "core/prime_plan.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "field/primes.hpp"

namespace camelot {

PrimePlan plan_primes(const ProofSpec& spec, double redundancy,
                      std::size_t num_primes) {
  if (!std::isfinite(redundancy) || redundancy < 1.0) {
    throw std::invalid_argument(
        "plan_primes: redundancy must be finite and >= 1");
  }
  PrimePlan plan;
  const u64 d = spec.degree_bound;
  const auto dim = static_cast<double>(d + 1);
  plan.code_length = std::max<std::size_t>(
      d + 1, static_cast<std::size_t>(std::ceil(redundancy * dim)));
  plan.decoding_radius = (plan.code_length - d - 1) / 2;

  // 2^a >= 4(e+1): the code's points need a primitive bit_ceil(e)-th
  // root of unity, and the remainder sequence convolves up to ~2e
  // coefficients.
  int two_adicity = 1;
  while ((std::size_t{1} << two_adicity) < 2 * (plan.code_length + 1)) {
    ++two_adicity;
  }
  ++two_adicity;  // one bit of headroom, kept so the planned primes stay

  const u64 min_q = std::max<u64>(spec.min_modulus, plan.code_length + 1);

  // The CRT modulus must cover 2*answer_bound (signed reconstruction
  // needs the factor 2; harmless for unsigned).
  const BigInt target = spec.answer_bound.mul_u64(2) + BigInt(1);
  const auto enough = [&](const std::vector<u64>& primes,
                          const BigInt& prod) {
    return num_primes != 0 ? primes.size() >= num_primes
                           : (!primes.empty() && prod > target);
  };

  // Fewest primes: take the largest lane primes (q < 2^31) from the
  // top down, as long as they stay >= min_q.
  BigInt prod = BigInt::from_u64(1);
  for (u64 below = u64{1} << 31; !enough(plan.primes, prod);) {
    const u64 q = find_ntt_prime_below(below, two_adicity);
    if (q < min_q) break;  // also q == 0: none left in range
    plan.primes.push_back(q);
    prod = prod.mul_u64(q);
    below = q;
  }
  if (enough(plan.primes, prod)) {
    std::reverse(plan.primes.begin(), plan.primes.end());
    return plan;
  }

  // [min_q, 2^31) holds too few: walk upward from min_q instead.
  plan.primes.clear();
  prod = BigInt::from_u64(1);
  for (u64 lo = min_q; !enough(plan.primes, prod);) {
    const u64 q = find_ntt_prime(lo, two_adicity);
    plan.primes.push_back(q);
    prod = prod.mul_u64(q);
    lo = q + 1;
  }
  return plan;
}

}  // namespace camelot
