// Selection of proof moduli and code parameters.
//
// The framework picks NTT-friendly primes q = c*2^a + 1 satisfying
// every constraint at once:
//   * q >= spec.min_modulus (problem-specific, e.g. 3R+1 in §5.2);
//   * 2^a large enough for the code's points — the powers of a
//     primitive bit_ceil(e)-th root of unity — and for the decoder's
//     transforms;
//   * prod(q_i) > 2 * answer_bound so CRT reconstruction is exact
//     (paper footnote 5).
//
// Among such primes it takes the fewest: the largest ones below 2^31,
// the top of the range the lane kernels run at one cost per word.
// Every prime repeats the whole pipeline (evaluate, encode, decode,
// verify, recover) and adds ceil(e/K)*ceil(log2 q) broadcast bits per
// node, so fewer, wider primes are cheaper. They also tighten the
// spot check, whose soundness error is d/q per trial (§1.3, eq. (2)):
// the 6-clique workload (d = 7200) moves from the two primes 65537 and
// 786433 (d/q = 0.11 on the first) to the one prime 2147352577
// (d/q = 3.4e-6). When min_q >= 2^31, or [min_q, 2^31) holds too few
// such primes, the plan falls back to the smallest primes >= min_q.
#pragma once

#include <cstddef>
#include <vector>

#include "core/proof_problem.hpp"

namespace camelot {

struct PrimePlan {
  // Code length e (number of evaluation points w^0..w^(e-1)).
  std::size_t code_length = 0;
  // Chosen CRT moduli, ascending.
  std::vector<u64> primes;
  // Unique-decoding radius floor((e-d-1)/2) in symbols.
  std::size_t decoding_radius = 0;
};

// Computes the plan. `redundancy` >= 1 scales the code length:
// e = max(d+1, ceil(redundancy*(d+1))); the slack buys byzantine
// fault tolerance. If num_primes == 0 the count is the fewest that
// covers spec.answer_bound; otherwise it is forced (for experiments)
// and the primes come from the top of the lane range the same way.
PrimePlan plan_primes(const ProofSpec& spec, double redundancy,
                      std::size_t num_primes = 0);

}  // namespace camelot
