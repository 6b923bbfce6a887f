#include "field/field.hpp"

#include <stdexcept>

#include "field/primes.hpp"

namespace camelot {

PrimeField::PrimeField(u64 q) : q_(q), two_adicity_(0), generator_(1) {
  if (q >= (u64{1} << 62)) {
    throw std::invalid_argument("PrimeField: modulus must be < 2^62");
  }
  if (!is_prime_u64(q)) {
    throw std::invalid_argument("PrimeField: modulus must be prime");
  }
  if (q > 2) {
    u64 m = q - 1;
    while (m % 2 == 0) {
      m /= 2;
      ++two_adicity_;
    }
    generator_ = primitive_root(q);
  }
}

u64 PrimeField::pow(u64 a, u64 e) const noexcept {
  u64 r = one();
  a %= q_;
  while (e > 0) {
    if (e & 1) r = mul(r, a);
    a = mul(a, a);
    e >>= 1;
  }
  return r;
}

u64 PrimeField::inv(u64 a) const {
  a %= q_;
  if (a == 0) throw std::invalid_argument("PrimeField::inv: zero element");
  // Extended Euclid on (q, a): t_i * a = r_i mod q, and r reaches
  // gcd = 1. |t_i| <= q < 2^62, so the cofactors fit an i64. About
  // 0.6 log2(q) division steps on average, against Fermat's ~1.5
  // log2(q) modular products; the inverse is unique, so the word is
  // the one Fermat returns.
  u64 r0 = q_, r1 = a;
  i64 t0 = 0, t1 = 1;
  while (r1 != 0) {
    const u64 k = r0 / r1;
    const u64 r2 = r0 - k * r1;
    const i64 t2 = t0 - static_cast<i64>(k) * t1;
    r0 = r1;
    r1 = r2;
    t0 = t1;
    t1 = t2;
  }
  return t0 < 0 ? static_cast<u64>(t0 + static_cast<i64>(q_))
                : static_cast<u64>(t0);
}

u64 PrimeField::root_of_unity(int k) const {
  if (k < 0 || k > two_adicity_) {
    throw std::invalid_argument("PrimeField::root_of_unity: k too large");
  }
  return pow(generator_, (q_ - 1) >> k);
}

std::vector<u64> PrimeField::batch_inv(const std::vector<u64>& xs) const {
  std::vector<u64> out(xs.size());
  if (xs.empty()) return out;
  // prefix[i] = x_0 * ... * x_{i-1}
  std::vector<u64> prefix(xs.size() + 1);
  prefix[0] = one();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == 0) {
      throw std::invalid_argument("PrimeField::batch_inv: zero element");
    }
    prefix[i + 1] = mul(prefix[i], xs[i]);
  }
  u64 acc = inv(prefix[xs.size()]);
  for (std::size_t i = xs.size(); i-- > 0;) {
    out[i] = mul(acc, prefix[i]);
    acc = mul(acc, xs[i]);
  }
  return out;
}

}  // namespace camelot
