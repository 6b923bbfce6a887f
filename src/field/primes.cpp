#include "field/primes.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace camelot {

namespace {

u64 mulmod(u64 a, u64 b, u64 m) {
  return static_cast<u64>((static_cast<u128>(a) * b) % m);
}

u64 powmod(u64 a, u64 e, u64 m) {
  u64 r = m == 1 ? 0 : 1;
  a %= m;
  while (e > 0) {
    if (e & 1) r = mulmod(r, a, m);
    a = mulmod(a, a, m);
    e >>= 1;
  }
  return r;
}

// Strong-probable-prime test to base a.
bool sprp(u64 n, u64 a, u64 d, int s) {
  u64 x = powmod(a, d, n);
  if (x == 1 || x == n - 1) return true;
  for (int i = 1; i < s; ++i) {
    x = mulmod(x, x, n);
    if (x == n - 1) return true;
  }
  return false;
}

u64 gcd_u64(u64 a, u64 b) {
  while (b != 0) {
    a %= b;
    std::swap(a, b);
  }
  return a;
}

// Brent's cycle-finding variant of Pollard's rho. Requires n composite
// and odd. Returns a nontrivial factor.
u64 pollard_rho(u64 n) {
  if (n % 2 == 0) return 2;
  for (u64 c = 1;; ++c) {
    auto f = [&](u64 x) { return (mulmod(x, x, n) + c) % n; };
    u64 x = 2, y = 2, d = 1;
    u64 q = 1;
    int count = 0;
    while (d == 1) {
      x = f(x);
      y = f(f(y));
      u64 diff = x > y ? x - y : y - x;
      if (diff == 0) break;  // cycle without factor; retry with new c
      q = mulmod(q, diff, n);
      if (++count % 64 == 0) {
        d = gcd_u64(q, n);
        if (d == n) break;
      }
    }
    if (d == 1) d = gcd_u64(q, n);
    if (d != 1 && d != n) return d;
  }
}

void factor_rec(u64 n, std::vector<u64>& out) {
  if (n == 1) return;
  if (is_prime_u64(n)) {
    out.push_back(n);
    return;
  }
  u64 d = pollard_rho(n);
  factor_rec(d, out);
  factor_rec(n / d, out);
}

}  // namespace

bool is_prime_u64(u64 n) {
  if (n < 2) return false;
  for (u64 p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                29ull, 31ull, 37ull}) {
    if (n == p) return true;
    if (n % p == 0) return false;
  }
  u64 d = n - 1;
  int s = 0;
  while (d % 2 == 0) {
    d /= 2;
    ++s;
  }
  // This witness set is deterministic for all n < 2^64
  // (Sorenson & Webster 2015).
  for (u64 a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                29ull, 31ull, 37ull}) {
    if (!sprp(n, a, d, s)) return false;
  }
  return true;
}

u64 next_prime(u64 n) {
  if (n > (u64{1} << 62)) {
    throw std::invalid_argument("next_prime: n must be <= 2^62");
  }
  if (n <= 2) return 2;
  if (n % 2 == 0) ++n;
  while (!is_prime_u64(n)) n += 2;
  return n;
}

std::vector<std::pair<u64, int>> factorize(u64 n) {
  if (n == 0) throw std::invalid_argument("factorize: n must be positive");
  std::vector<u64> primes;
  // Strip small factors first so rho only sees hard composites.
  for (u64 p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull}) {
    while (n % p == 0) {
      primes.push_back(p);
      n /= p;
    }
  }
  factor_rec(n, primes);
  std::sort(primes.begin(), primes.end());
  std::vector<std::pair<u64, int>> out;
  for (u64 p : primes) {
    if (!out.empty() && out.back().first == p) {
      ++out.back().second;
    } else {
      out.emplace_back(p, 1);
    }
  }
  return out;
}

u64 primitive_root(u64 p) {
  if (p == 2) return 1;
  auto factors = factorize(p - 1);
  for (u64 g = 2;; ++g) {
    bool ok = true;
    for (auto [f, _] : factors) {
      if (powmod(g, (p - 1) / f, p) == 1) {
        ok = false;
        break;
      }
    }
    if (ok) return g;
  }
}

u64 find_ntt_prime(u64 min_value, int two_adicity) {
  if (two_adicity < 0 || two_adicity > 60) {
    throw std::invalid_argument("find_ntt_prime: bad two_adicity");
  }
  const u64 step = u64{1} << two_adicity;
  const u64 limit = u64{1} << 62;
  u64 k = min_value <= 1 ? 1 : (min_value - 1 + step - 1) / step;
  if (k == 0) k = 1;
  for (; ; ++k) {
    u64 q = k * step + 1;
    if (q >= limit || q < min_value /* overflow */) {
      throw std::invalid_argument("find_ntt_prime: no prime below 2^62");
    }
    if (is_prime_u64(q)) return q;
  }
}

u64 find_ntt_prime_below(u64 limit, int two_adicity) {
  if (two_adicity < 0 || two_adicity > 60) {
    throw std::invalid_argument("find_ntt_prime_below: bad two_adicity");
  }
  const u64 step = u64{1} << two_adicity;
  if (limit <= 2) return 0;
  // Candidates are k*step + 1 for k >= 1; start at the largest below
  // `limit`.
  for (u64 k = (limit - 2) / step; k >= 1; --k) {
    const u64 q = k * step + 1;
    if (is_prime_u64(q)) return q;
  }
  return 0;
}

std::vector<u64> find_ntt_primes(u64 min_value, int two_adicity,
                                 std::size_t count) {
  std::vector<u64> out;
  u64 lo = min_value;
  while (out.size() < count) {
    u64 q = find_ntt_prime(lo, two_adicity);
    out.push_back(q);
    lo = q + 1;
  }
  return out;
}

}  // namespace camelot
