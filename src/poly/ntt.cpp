#include "poly/ntt.hpp"

#include <algorithm>
#include <stdexcept>

#include "field/shoup.hpp"

namespace camelot {

namespace {

std::size_t next_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

int log2_exact(std::size_t n) {
  int k = 0;
  while ((std::size_t{1} << k) < n) ++k;
  return k;
}

// Validation + bit-reversal permutation shared by both butterfly
// kernels. Throws before permuting, so a failed call leaves the
// input untouched.
void check_size_and_bit_reverse(std::vector<u64>& a, int max_log2) {
  const std::size_t n = a.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("ntt_inplace: size must be a power of two");
  }
  if (log2_exact(n) > max_log2) {
    throw std::invalid_argument("ntt_inplace: field two-adicity too small");
  }
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

// Radix-2 kernel over any Montgomery backend. Tabled transforms take
// the Shoup-quotient butterfly (canonical twiddle + precomputed
// quotient, no REDC); untabled ones power each stage's Montgomery
// twiddles on the fly and multiply with REDC. The lane backends route
// the butterflies and the final 1/n scaling through their lane-wide
// kernels. Every combination computes the identical multiplication
// sequence mod q — and hence every output word — so backends and
// butterfly flavors can be mixed freely.
template <class Field>
void ntt_kernel(std::vector<u64>& a, bool inverse, const Field& fref,
                const NttTables* tables) {
  // By-value copy keeps the Montgomery constants in registers across
  // the butterfly stores (a reference could alias the written data).
  const Field f = fref;
  const std::size_t n = a.size();
  if (tables != nullptr) {
    if (tables->modulus() != f.modulus()) {
      throw std::invalid_argument(
          "ntt_inplace: twiddle table modulus mismatch");
    }
    if (n > tables->capacity()) {
      throw std::invalid_argument("ntt_inplace: twiddle table too small");
    }
    // Capacity is clamped to the field's two-adicity, so n <= capacity
    // already bounds the transform length.
    check_size_and_bit_reverse(a, log2_exact(tables->capacity()));
  } else {
    check_size_and_bit_reverse(a, f.two_adicity());
  }
  const int lg = log2_exact(n);
  const bool shoup = tables != nullptr && tables->has_shoup();
  std::vector<u64> tw;  // untabled twiddle chain, rebuilt per stage
  for (int k = 1; k <= lg; ++k) {
    const std::size_t len = std::size_t{1} << k;
    const std::size_t half = len / 2;
    if (shoup) {
      const NttTables::Stage st = tables->stage(k, inverse);
      if constexpr (FieldHasBatchKernels<Field>) {
        f.ntt_stage_shoup(a.data(), n, len, st.op, st.qt);
      } else {
        const u64 q = f.modulus();
        for (std::size_t i = 0; i < n; i += len) {
          for (std::size_t j = 0; j < half; ++j) {
            const u64 u = a[i + j];
            const u64 v = shoup_mul(a[i + j + half], st.op[j], st.qt[j], q);
            a[i + j] = f.add(u, v);
            a[i + j + half] = f.sub(u, v);
          }
        }
      }
      continue;
    }
    u64 wlen = f.root_of_unity(k);
    if (inverse) wlen = f.inv(wlen);
    tw.resize(half);
    tw[0] = f.one();
    for (std::size_t j = 1; j < half; ++j) tw[j] = f.mul(tw[j - 1], wlen);
    if constexpr (FieldHasBatchKernels<Field>) {
      f.ntt_stage(a.data(), n, len, tw.data());
    } else {
      for (std::size_t i = 0; i < n; i += len) {
        for (std::size_t j = 0; j < half; ++j) {
          const u64 u = a[i + j];
          const u64 v = f.mul(a[i + j + half], tw[j]);
          a[i + j] = f.add(u, v);
          a[i + j + half] = f.sub(u, v);
        }
      }
    }
  }
  if (inverse) {
    const u64 n_inv =
        tables != nullptr ? tables->n_inv(lg) : f.inv(f.from_u64(n));
    if constexpr (FieldHasBatchKernels<Field>) {
      f.scale_vec(a.data(), n_inv, a.data(), n);
    } else {
      for (u64& v : a) v = f.mul(v, n_inv);
    }
  }
}

// Both convolution kernels transform in their own buffers and return
// the first one, so the result costs no extra copy.
template <class Field>
std::vector<u64> convolve_kernel(std::span<const u64> a, std::span<const u64> b,
                                 const Field& f, const NttTables* tables) {
  const std::size_t out = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out);
  std::vector<u64> fa(a.begin(), a.end()), fb(b.begin(), b.end());
  fa.resize(n, 0);
  fb.resize(n, 0);
  ntt_kernel(fa, false, f, tables);
  ntt_kernel(fb, false, f, tables);
  if constexpr (FieldHasBatchKernels<Field>) {
    f.mul_vec(fa.data(), fb.data(), fa.data(), n);
  } else {
    for (std::size_t i = 0; i < n; ++i) fa[i] = f.mul(fa[i], fb[i]);
  }
  ntt_kernel(fa, true, f, tables);
  fa.resize(out);
  return fa;
}

// Folds `src` into `n` slots mod x^n - 1: slot i accumulates every
// coefficient whose index is congruent to i. For power-of-two n the
// wrap positions are exactly the aliases the middle product discards,
// so the caller's target slice reads back exact products.
template <class Field>
std::vector<u64> fold_mod_xn(std::span<const u64> src, std::size_t n,
                             const Field& f) {
  std::vector<u64> out(n, 0);
  const std::size_t head = std::min(src.size(), n);
  std::copy(src.begin(), src.begin() + static_cast<std::ptrdiff_t>(head),
            out.begin());
  for (std::size_t i = n; i < src.size(); ++i) {
    out[i & (n - 1)] = f.add(out[i & (n - 1)], src[i]);
  }
  return out;
}

template <class Field>
std::vector<u64> cyclic_kernel(std::span<const u64> a, std::span<const u64> b,
                               std::size_t n, const Field& f,
                               const NttTables* tables) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument(
        "ntt_convolve_cyclic: size must be a power of two");
  }
  std::vector<u64> fa = fold_mod_xn(a, n, f);
  std::vector<u64> fb = fold_mod_xn(b, n, f);
  ntt_kernel(fa, false, f, tables);
  ntt_kernel(fb, false, f, tables);
  if constexpr (FieldHasBatchKernels<Field>) {
    f.mul_vec(fa.data(), fb.data(), fa.data(), n);
  } else {
    for (std::size_t i = 0; i < n; ++i) fa[i] = f.mul(fa[i], fb[i]);
  }
  ntt_kernel(fa, true, f, tables);
  return fa;
}

}  // namespace

NttTables::NttTables(const MontgomeryField& m, std::size_t max_size)
    : q_(m.modulus()) {
  const std::size_t limit =
      m.two_adicity() >= 62 ? (std::size_t{1} << 62)
                            : (std::size_t{1} << m.two_adicity());
  capacity_ = std::min(next_pow2(std::max<std::size_t>(max_size, 1)), limit);
  const int lg = log2_exact(capacity_);
  n_inv_.resize(static_cast<std::size_t>(lg) + 1);
  for (int k = 0; k <= lg; ++k) {
    n_inv_[static_cast<std::size_t>(k)] =
        m.inv(m.from_u64(u64{1} << k));
  }
  // No stages to tabulate; this covers q == 2 (two-adicity 0), which
  // has no Montgomery form.
  if (capacity_ < 2) return;
  const std::size_t entries = capacity_ - 1;
  fwd_op_.resize(entries);
  fwd_qt_.resize(entries);
  inv_op_.resize(entries);
  inv_qt_.resize(entries);
  // Top stage (order capacity()): the power chain of w / w^{-1}, run
  // in the Montgomery domain and stored canonical.
  const u64 w = m.root_of_unity(lg);
  const u64 w_inv = m.inv(w);
  const std::size_t top = capacity_ / 2 - 1;
  u64 pf = m.one();
  u64 pi = m.one();
  for (std::size_t j = 0; j < capacity_ / 2; ++j) {
    fwd_op_[top + j] = m.from_mont(pf);
    inv_op_[top + j] = m.from_mont(pi);
    pf = m.mul(pf, w);
    pi = m.mul(pi, w_inv);
  }
  // Stage k twiddles are every other entry of stage k+1
  // (w_k = w_{k+1}^2), so the lower stages are strided copies.
  for (int k = lg - 1; k >= 1; --k) {
    const std::size_t half = std::size_t{1} << (k - 1);
    for (std::size_t j = 0; j < half; ++j) {
      fwd_op_[half - 1 + j] = fwd_op_[2 * half - 1 + 2 * j];
      inv_op_[half - 1 + j] = inv_op_[2 * half - 1 + 2 * j];
    }
  }
  for (std::size_t i = 0; i < entries; ++i) {
    fwd_qt_[i] = shoup_quotient(fwd_op_[i], q_);
    inv_qt_[i] = shoup_quotient(inv_op_[i], q_);
  }
}

bool ntt_supports_size(const PrimeField& f, std::size_t result_size) {
  const std::size_t n = next_pow2(result_size);
  return log2_exact(n) <= f.two_adicity() && n < f.modulus();
}

bool ntt_supports_size(const MontgomeryField& f, std::size_t result_size) {
  return ntt_supports_size(f.base(), result_size);
}

bool ntt_supports_size(const MontgomeryAvx2Field& f,
                       std::size_t result_size) {
  return ntt_supports_size(f.base(), result_size);
}

bool ntt_supports_size(const MontgomeryAvx512Field& f,
                       std::size_t result_size) {
  return ntt_supports_size(f.base(), result_size);
}

void ntt_inplace(std::vector<u64>& a, bool inverse, const PrimeField& f) {
  // Validate before converting so a failed call leaves `a` untouched.
  const std::size_t n = a.size();
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("ntt_inplace: size must be a power of two");
  }
  if (log2_exact(n) > f.two_adicity()) {
    throw std::invalid_argument("ntt_inplace: field two-adicity too small");
  }
  const MontgomeryField m(f);
  m.to_mont_inplace(a);
  ntt_kernel(a, inverse, m, nullptr);
  m.from_mont_inplace(a);
}

void ntt_inplace(std::vector<u64>& a, bool inverse,
                 const MontgomeryField& f) {
  ntt_kernel(a, inverse, f, nullptr);
}

void ntt_inplace(std::vector<u64>& a, bool inverse, const MontgomeryField& f,
                 const NttTables& tables) {
  ntt_kernel(a, inverse, f, &tables);
}

void ntt_inplace(std::vector<u64>& a, bool inverse,
                 const MontgomeryAvx2Field& f) {
  ntt_kernel(a, inverse, f, nullptr);
}

void ntt_inplace(std::vector<u64>& a, bool inverse,
                 const MontgomeryAvx2Field& f, const NttTables& tables) {
  ntt_kernel(a, inverse, f, &tables);
}

void ntt_inplace(std::vector<u64>& a, bool inverse,
                 const MontgomeryAvx512Field& f) {
  ntt_kernel(a, inverse, f, nullptr);
}

void ntt_inplace(std::vector<u64>& a, bool inverse,
                 const MontgomeryAvx512Field& f, const NttTables& tables) {
  ntt_kernel(a, inverse, f, &tables);
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const PrimeField& f) {
  if (a.empty() || b.empty()) return {};
  const MontgomeryField m(f);
  std::vector<u64> fa = m.to_mont_vec(a), fb = m.to_mont_vec(b);
  std::vector<u64> r = convolve_kernel(fa, fb, m, nullptr);
  m.from_mont_inplace(r);
  return r;
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const MontgomeryField& f) {
  if (a.empty() || b.empty()) return {};
  return convolve_kernel(a, b, f, nullptr);
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const MontgomeryAvx2Field& f) {
  if (a.empty() || b.empty()) return {};
  return convolve_kernel(a, b, f, nullptr);
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const MontgomeryAvx512Field& f) {
  if (a.empty() || b.empty()) return {};
  return convolve_kernel(a, b, f, nullptr);
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const MontgomeryField& f,
                              const NttTables& tables) {
  if (a.empty() || b.empty()) return {};
  return convolve_kernel(a, b, f, &tables);
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const MontgomeryAvx2Field& f,
                              const NttTables& tables) {
  if (a.empty() || b.empty()) return {};
  return convolve_kernel(a, b, f, &tables);
}

std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const MontgomeryAvx512Field& f,
                              const NttTables& tables) {
  if (a.empty() || b.empty()) return {};
  return convolve_kernel(a, b, f, &tables);
}

std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const PrimeField& f) {
  const MontgomeryField m(f);
  std::vector<u64> fa = m.to_mont_vec(a), fb = m.to_mont_vec(b);
  std::vector<u64> r = cyclic_kernel(fa, fb, n, m, nullptr);
  m.from_mont_inplace(r);
  return r;
}

std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const MontgomeryField& f) {
  return cyclic_kernel(a, b, n, f, nullptr);
}

std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const MontgomeryAvx2Field& f) {
  return cyclic_kernel(a, b, n, f, nullptr);
}

std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const MontgomeryAvx512Field& f) {
  return cyclic_kernel(a, b, n, f, nullptr);
}

std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const MontgomeryField& f,
                                     const NttTables& tables) {
  return cyclic_kernel(a, b, n, f, &tables);
}

std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const MontgomeryAvx2Field& f,
                                     const NttTables& tables) {
  return cyclic_kernel(a, b, n, f, &tables);
}

std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const MontgomeryAvx512Field& f,
                                     const NttTables& tables) {
  return cyclic_kernel(a, b, n, f, &tables);
}

}  // namespace camelot
