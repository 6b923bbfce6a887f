// AVX-512 lane-wide Montgomery backend (FieldBackend::kMontgomeryAvx512).
//
// MontgomeryAvx512Field is a drop-in for MontgomeryField (and for
// MontgomeryAvx2Field) in every templated kernel: values live in the
// same Montgomery domain, the scalar surface delegates to the wrapped
// context, and every batch kernel computes bit-identical results to
// the scalar loop it replaces. What changes is the instruction mix:
// eight u64 lanes per iteration instead of four, and native unsigned
// mask compares for the modular folds.
//
// The lanes implement the same single REDC sequence as the AVX2 set
// (two chained REDC-32 steps, valid for q < 2^31; the constructor
// throws std::invalid_argument for wider moduli), and the Shoup
// butterflies of the NTT passes take *canonical* twiddles with
// precomputed quotients (see field/shoup.hpp), producing the same
// words as the REDC butterflies by the Shoup identity.
//
// Batch definitions live in field/montgomery_avx512.cpp (compiled
// with -mavx512f -mavx512dq); everything else in the build stays
// portable, and FieldOps resolution keeps hosts without the ISA off
// these entry points. On targets compiled without the extensions the
// same symbols exist as scalar fallbacks.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "field/montgomery.hpp"
#include "field/ntt_passes.hpp"

namespace camelot {

class MontgomeryAvx512Field {
 public:
  static constexpr std::size_t kLanes = 8;

  explicit MontgomeryAvx512Field(const MontgomeryField& m) : m_(m) {
    if ((m.modulus() >> 31) != 0) {
      throw std::invalid_argument("MontgomeryAvx512Field: modulus >= 2^31");
    }
  }

  // The wrapped scalar context (same domain, same constants).
  const MontgomeryField& scalar() const noexcept { return m_; }
  const PrimeField& base() const noexcept { return m_.base(); }
  u64 modulus() const noexcept { return m_.modulus(); }
  int two_adicity() const noexcept { return m_.two_adicity(); }

  // ---- Scalar surface (delegates; used by the non-batch parts of the
  // templated kernels and by the tails of the batch kernels) ----------
  u64 to_mont(u64 a) const noexcept { return m_.to_mont(a); }
  u64 from_mont(u64 a) const noexcept { return m_.from_mont(a); }
  std::vector<u64> to_mont_vec(std::span<const u64> xs) const {
    return m_.to_mont_vec(xs);
  }
  std::vector<u64> from_mont_vec(std::span<const u64> xs) const {
    return m_.from_mont_vec(xs);
  }
  void to_mont_inplace(std::span<u64> xs) const noexcept {
    m_.to_mont_inplace(xs);
  }
  void from_mont_inplace(std::span<u64> xs) const noexcept {
    m_.from_mont_inplace(xs);
  }
  u64 zero() const noexcept { return m_.zero(); }
  u64 one() const noexcept { return m_.one(); }
  u64 from_u64(u64 v) const noexcept { return m_.from_u64(v); }
  u64 reduce(u64 v) const noexcept { return m_.reduce(v); }
  u64 add(u64 a, u64 b) const noexcept { return m_.add(a, b); }
  u64 sub(u64 a, u64 b) const noexcept { return m_.sub(a, b); }
  u64 neg(u64 a) const noexcept { return m_.neg(a); }
  u64 mul(u64 a, u64 b) const noexcept { return m_.mul(a, b); }
  u64 sqr(u64 a) const noexcept { return m_.sqr(a); }
  u64 pow(u64 a, u64 e) const noexcept { return m_.pow(a, e); }
  u64 inv(u64 a) const { return m_.inv(a); }
  u64 div(u64 a, u64 b) const { return m_.div(a, b); }
  std::vector<u64> batch_inv(const std::vector<u64>& xs) const {
    return m_.batch_inv(xs);
  }
  u64 root_of_unity(int k) const { return m_.root_of_unity(k); }

  // ---- Batch kernels (AVX-512; defined in montgomery_avx512.cpp) ----
  // All take Montgomery-domain values, handle arbitrary n with a
  // scalar tail, tolerate out == a (in-place), and fall back to the
  // scalar loop wholesale when the context is trivial (q == 2).

  // out[i] = a[i] * b[i]
  void mul_vec(const u64* a, const u64* b, u64* out,
               std::size_t n) const noexcept;
  // out[i] = a[i] * s
  void scale_vec(const u64* a, u64 s, u64* out, std::size_t n) const noexcept;
  // r[i] = r[i] + s * b[i]   (schoolbook/Karatsuba row push)
  void addmul_inplace(u64* r, u64 s, const u64* b,
                      std::size_t n) const noexcept;
  // r[i] = r[i] - s * b[i]   (polynomial remainder row elimination)
  void submul_inplace(u64* r, u64 s, const u64* b,
                      std::size_t n) const noexcept;
  // r[i] = r[i] + b[i]       (unit-weight Yates push)
  void add_inplace(u64* r, const u64* b, std::size_t n) const noexcept;
  // out[i] = x - a[i]        (Lagrange node differences)
  void sub_from_scalar(u64 x, const u64* a, u64* out,
                       std::size_t n) const noexcept;
  // sum_i a[i] * b[i] (mod-q addition is exact, so lane re-association
  // still returns the same u64 as the sequential fold)
  u64 dot(const u64* a, const u64* b, std::size_t n) const noexcept;
  // Whole radix-2 passes over a[0..n), n a power of two, with the
  // twiddles of field/ntt_passes.hpp in either flavour: ntt_dif is the
  // forward DIF pass (natural order in, bit-reversed spectrum out),
  // ntt_dit the DIT pass (bit-reversed in, natural order out, no 1/n).
  // The stages with h >= 8 run vector-wide; the three short stages
  // (h = 4, 2, 1) run fused in registers, one load and one store per
  // eight words. Same words as ntt_dif_scalar / ntt_dit_scalar.
  void ntt_dif(u64* a, std::size_t n, NttTwiddles tw) const noexcept;
  void ntt_dit(u64* a, std::size_t n, NttTwiddles tw) const noexcept;

 private:
  MontgomeryField m_;
};

}  // namespace camelot
