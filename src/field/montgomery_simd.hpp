// AVX2 lane-wide Montgomery backend (FieldBackend::kMontgomeryAvx2).
//
// MontgomeryAvx2Field is a drop-in for MontgomeryField in every
// templated kernel: values live in the same Montgomery domain, the
// scalar surface delegates to the wrapped context, and every batch
// kernel computes bit-identical results to the scalar loop it
// replaces (integer arithmetic mod q is exact, so even re-associated
// reductions like dot() land on the same u64). What changes is the
// instruction mix: the batch entry points below process four u64
// lanes per iteration, assembling each 64-bit REDC from vpmuludq
// 32x32 partial products.
//
// The lanes implement one REDC sequence, valid for q < 2^31: REDC by
// 2^64 factors into two chained REDC-32 steps (word-by-word
// Montgomery), which costs only 5 vpmuludq per 4 products — a large
// speedup over 4 scalar mulx-based multiplies — while computing
// exactly the same t*R^{-1} mod q function, so the output words
// match the scalar backend bit for bit. The framework plans its CRT
// primes from the top of this range, just below 2^31
// (core/prime_plan.cpp), so a session leaves this path only when its
// problem demands q >= 2^31; the constructor throws
// std::invalid_argument for q >= 2^31.
//
// The batch definitions live in field/montgomery_simd.cpp — the only
// translation unit compiled with -mavx2, so the rest of the build
// stays portable. Callers must not invoke the batch kernels unless
// dispatch allows it: FieldOps resolves a kMontgomeryAvx2 request to
// kMontgomery when the CPU lacks AVX2, when CAMELOT_FORCE_SCALAR is
// set, when q >= 2^31, or when q == 2 (identity-domain mode), so
// routing on FieldOps::backend() is always safe.
#pragma once

#include <cstddef>
#include <stdexcept>
#include <vector>

#include "field/montgomery.hpp"
#include "field/ntt_passes.hpp"

namespace camelot {

// Advertises lane-wide batch kernels to the templated polynomial and
// Yates kernels: `if constexpr (FieldHasBatchKernels<Field>)` routes
// their mul-heavy inner loops through the batch entry points.
template <class Field>
concept FieldHasBatchKernels =
    requires(const Field& f, u64* r, const u64* a, u64 s, std::size_t n) {
      f.mul_vec(a, a, r, n);
      f.scale_vec(a, s, r, n);
      f.addmul_inplace(r, s, a, n);
      f.submul_inplace(r, s, a, n);
      f.add_inplace(r, a, n);
    };

class MontgomeryAvx2Field {
 public:
  static constexpr std::size_t kLanes = 4;

  explicit MontgomeryAvx2Field(const MontgomeryField& m) : m_(m) {
    if ((m.modulus() >> 31) != 0) {
      throw std::invalid_argument("MontgomeryAvx2Field: modulus >= 2^31");
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

  // ---- Batch kernels (AVX2; defined in montgomery_simd.cpp) ---------
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
  // The stages with h >= 4 run vector-wide; the two short stages
  // (h = 2, 1) run fused in registers, one load and one store per four
  // words. Same words as ntt_dif_scalar / ntt_dit_scalar; the Shoup
  // flavour is one vpmuludq cheaper per product than REDC.
  void ntt_dif(u64* a, std::size_t n, NttTwiddles tw) const noexcept;
  void ntt_dit(u64* a, std::size_t n, NttTwiddles tw) const noexcept;

 private:
  MontgomeryField m_;
};

}  // namespace camelot
