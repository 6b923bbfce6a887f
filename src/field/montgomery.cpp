#include "field/montgomery.hpp"

#include <stdexcept>

namespace camelot {

namespace {

// q^{-1} mod 2^64 for odd q by Newton iteration: each step doubles the
// number of correct low bits, so 6 steps suffice for 64 bits.
u64 inv_mod_pow64(u64 q) {
  u64 x = q;  // correct to 3 bits already (q odd)
  for (int i = 0; i < 6; ++i) x *= 2 - q * x;
  return x;
}

}  // namespace

MontgomeryField::MontgomeryField(const PrimeField& f)
    : base_(f), q_(f.modulus()), trivial_(f.modulus() == 2) {
  if (trivial_) {
    // gcd(2^64, 2) != 1: no Montgomery representation exists. Degrade
    // to the identity domain; mul() becomes AND, which is Z_2 product.
    neg_q_inv_ = 0;
    r1_ = 1;
    r2_ = 1;
    return;
  }
  neg_q_inv_ = ~inv_mod_pow64(q_) + 1;
  r1_ = static_cast<u64>((static_cast<u128>(1) << 64) % q_);
  r2_ = static_cast<u64>(static_cast<u128>(r1_) * r1_ % q_);
}

// The conversion and batch loops below each start from a by-value
// copy of *this: the output stores could alias an object reached via
// the this-pointer, and the copy lets the compiler keep the Montgomery
// constants in registers.

std::vector<u64> MontgomeryField::to_mont_vec(std::span<const u64> xs) const {
  const MontgomeryField m = *this;
  std::vector<u64> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = m.to_mont(xs[i] % m.q_);
  return out;
}

std::vector<u64> MontgomeryField::from_mont_vec(
    std::span<const u64> xs) const {
  const MontgomeryField m = *this;
  std::vector<u64> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = m.from_mont(xs[i]);
  return out;
}

void MontgomeryField::to_mont_inplace(std::span<u64> xs) const noexcept {
  const MontgomeryField m = *this;
  for (u64& x : xs) x = m.to_mont(x % m.q_);
}

void MontgomeryField::from_mont_inplace(std::span<u64> xs) const noexcept {
  const MontgomeryField m = *this;
  for (u64& x : xs) x = m.from_mont(x);
}

u64 MontgomeryField::pow(u64 a, u64 e) const noexcept {
  u64 r = one();
  while (e > 0) {
    if (e & 1) r = mul(r, a);
    a = mul(a, a);
    e >>= 1;
  }
  return r;
}

u64 MontgomeryField::inv(u64 a) const {
  if (a == 0) {
    throw std::invalid_argument("MontgomeryField::inv: zero element");
  }
  // aR -> a -> a^{-1} (extended Euclid, PrimeField::inv) -> a^{-1}R.
  return to_mont(base_.inv(from_mont(a)));
}

std::vector<u64> MontgomeryField::batch_inv(const std::vector<u64>& xs) const {
  const MontgomeryField m = *this;
  std::vector<u64> out(xs.size());
  if (xs.empty()) return out;
  std::vector<u64> prefix(xs.size() + 1);
  prefix[0] = m.one();
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (xs[i] == 0) {
      throw std::invalid_argument("MontgomeryField::batch_inv: zero element");
    }
    prefix[i + 1] = m.mul(prefix[i], xs[i]);
  }
  u64 acc = m.inv(prefix[xs.size()]);
  for (std::size_t i = xs.size(); i-- > 0;) {
    out[i] = m.mul(acc, prefix[i]);
    acc = m.mul(acc, xs[i]);
  }
  return out;
}

}  // namespace camelot
