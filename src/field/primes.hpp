// Prime testing and generation utilities.
//
// The paper (§1.3, Remark 2 in §7.2) assumes each node "can easily
// compute" suitable primes q from the common input, citing AKS [2].
// For 64-bit moduli a deterministic Miller--Rabin test with a fixed
// witness set is provably correct and far faster; Pollard's rho
// supplies the factorization of q-1 needed to find primitive roots.
#pragma once

#include <cstdint>
#include <vector>

#include "field/field.hpp"

namespace camelot {

// Deterministic primality test, correct for all n < 2^64.
bool is_prime_u64(u64 n);

// Smallest prime >= n. Throws std::invalid_argument for n > 2^62
// (there is always a prime in [n, 2n), so the result stays in range).
u64 next_prime(u64 n);

// Factorization of n as (prime, multiplicity) pairs, primes ascending.
// Uses trial division for small factors and Brent--Pollard rho beyond.
std::vector<std::pair<u64, int>> factorize(u64 n);

// Smallest generator of Z_p^* for prime p.
u64 primitive_root(u64 p);

// Smallest prime q >= min_value with 2^two_adicity | q - 1 (an
// "NTT-friendly" prime supporting transforms of length 2^two_adicity).
// Throws std::invalid_argument if no such prime exists below 2^62.
u64 find_ntt_prime(u64 min_value, int two_adicity);

// Largest prime q < limit with 2^two_adicity | q - 1, or 0 when there
// is none. The prime planner walks down from the top of the lane range
// with it (core/prime_plan.hpp). Throws std::invalid_argument for a
// two_adicity outside [0, 60].
u64 find_ntt_prime_below(u64 limit, int two_adicity);

// The first `count` distinct NTT-friendly primes >= min_value, each
// supporting length-2^two_adicity transforms. Used by the counters
// that run their own CRT outside the framework (footnote 5: "multiple
// distinct primes q and the Chinese Remainder Theorem").
std::vector<u64> find_ntt_primes(u64 min_value, int two_adicity,
                                 std::size_t count);

}  // namespace camelot
