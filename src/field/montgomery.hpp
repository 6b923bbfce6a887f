// Montgomery-form arithmetic backend for PrimeField (the "FieldOps"
// facade). The division-based PrimeField::mul reduces every 128-bit
// product with a hardware division (~tens of cycles); Montgomery
// multiplication replaces it with two 64x64 multiplies and a shift.
//
// Values live in the *Montgomery domain*: x is represented by
// xR mod q with R = 2^64. Hot loops convert once at the boundary
// (to_mont / from_mont over whole vectors), then run every add, sub
// and mul on domain values. MontgomeryField deliberately mirrors the
// PrimeField method surface (add/sub/neg/mul/sqr/pow/inv/batch_inv/
// one/zero/from_u64/reduce) so the templated polynomial kernels in
// poly/ can be instantiated for either backend.
//
// Requires gcd(R, q) = 1, i.e. odd q. The only even prime is 2, for
// which the class degrades to a trivial identity-domain mode so that
// every prime PrimeField accepts keeps working.
#pragma once

#include <span>
#include <vector>

#include "field/field.hpp"

namespace camelot {

class MontgomeryField {
 public:
  // Builds the Montgomery context for f's modulus (q < 2^62, prime).
  explicit MontgomeryField(const PrimeField& f);

  const PrimeField& base() const noexcept { return base_; }
  u64 modulus() const noexcept { return q_; }
  int two_adicity() const noexcept { return base_.two_adicity(); }

  // ---- Domain conversion ------------------------------------------------
  // aR mod q for canonical a in [0, q).
  u64 to_mont(u64 a) const noexcept {
    return trivial_ ? a : mul_impl(a, r2_);
  }
  // Inverse map: (aR)R^{-1} = a, canonical in [0, q).
  u64 from_mont(u64 a) const noexcept {
    return trivial_ ? a : redc(static_cast<u128>(a));
  }
  // Whole-vector conversions (the once-per-pipeline boundary cost).
  // to_mont_vec canonicalizes arbitrary u64 inputs first.
  std::vector<u64> to_mont_vec(std::span<const u64> xs) const;
  std::vector<u64> from_mont_vec(std::span<const u64> xs) const;
  void to_mont_inplace(std::span<u64> xs) const noexcept;
  void from_mont_inplace(std::span<u64> xs) const noexcept;

  // ---- Arithmetic on Montgomery-domain values ---------------------------
  u64 zero() const noexcept { return 0; }
  u64 one() const noexcept { return r1_; }  // R mod q

  // Embeds a plain integer (not yet in any domain) into the field.
  u64 from_u64(u64 v) const noexcept { return to_mont(v % q_); }

  // Canonical-range clamp. Domain values are already in [0, q); this
  // exists for interface parity with PrimeField (where templated code
  // calls f.reduce on values it knows to be in-domain, it is a no-op).
  u64 reduce(u64 v) const noexcept { return v % q_; }

  // add/sub/neg are written with mask arithmetic instead of ternaries:
  // the conditions are data-dependent coin flips in the hot kernels,
  // and a compiler that turns them into branches (gcc does, at some
  // optimization levels) eats a misprediction per element.
  u64 add(u64 a, u64 b) const noexcept {
    const u64 s = a + b;  // no overflow: a, b < 2^62
    return s - (q_ & -static_cast<u64>(s >= q_));
  }
  u64 sub(u64 a, u64 b) const noexcept {
    const u64 d = a - b;
    return d + (q_ & -static_cast<u64>(a < b));
  }
  u64 neg(u64 a) const noexcept {
    return (q_ - a) & -static_cast<u64>(a != 0);
  }

  // (aR)(bR)R^{-1} = (ab)R: multiplication stays in the domain.
  u64 mul(u64 a, u64 b) const noexcept {
    return trivial_ ? (a & b) : mul_impl(a, b);
  }
  u64 sqr(u64 a) const noexcept { return mul(a, a); }

  // a^e for Montgomery-domain a; result is Montgomery-domain a^e.
  u64 pow(u64 a, u64 e) const noexcept;

  // Montgomery-domain inverse: maps aR to a^{-1}R. Throws on zero.
  u64 inv(u64 a) const;
  u64 div(u64 a, u64 b) const { return mul(a, inv(b)); }

  // Batch inversion (Montgomery's trick) of Montgomery-domain values.
  std::vector<u64> batch_inv(const std::vector<u64>& xs) const;

  // Primitive 2^k-th root of unity, in the Montgomery domain.
  u64 root_of_unity(int k) const { return to_mont(base_.root_of_unity(k)); }

  friend bool operator==(const MontgomeryField& a,
                         const MontgomeryField& b) noexcept {
    return a.q_ == b.q_;
  }

  // True for q == 2, where no Montgomery representation exists and the
  // class runs in identity-domain mode (the lane fields refuse it).
  bool trivial() const noexcept { return trivial_; }

 private:
  // REDC: t * R^{-1} mod q for t < qR.
  u64 redc(u128 t) const noexcept {
    const u64 m = static_cast<u64>(t) * neg_q_inv_;
    const u64 r =
        static_cast<u64>((t + static_cast<u128>(m) * q_) >> 64);
    return r - (q_ & -static_cast<u64>(r >= q_));
  }
  u64 mul_impl(u64 a, u64 b) const noexcept {
    return redc(static_cast<u128>(a) * b);
  }

  PrimeField base_;

 protected:
  // Read directly by the lane kernels (field/montgomery_lanes.hpp),
  // whose ISA-flagged translation units call no inline member of this
  // class.
  u64 q_;
  u64 neg_q_inv_;  // -q^{-1} mod 2^64
  u64 r1_;         // R mod q

 private:
  u64 r2_;         // R^2 mod q
  bool trivial_;   // q == 2: Montgomery undefined, identity domain
};

}  // namespace camelot
