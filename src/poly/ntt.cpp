#include "poly/ntt.hpp"

#include <algorithm>
#include <stdexcept>
#include <type_traits>

#include "field/backend_dispatch.hpp"
#include "field/ntt_passes.hpp"
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

// Validates the transform length (before anything is touched, so a
// failed call leaves the input as it was) and returns log2(n).
int checked_log2(std::size_t n, int max_log2) {
  if (n == 0 || (n & (n - 1)) != 0) {
    throw std::invalid_argument("ntt_inplace: size must be a power of two");
  }
  const int lg = log2_exact(n);
  if (lg > max_log2) {
    throw std::invalid_argument("ntt_inplace: field two-adicity too small");
  }
  return lg;
}

template <class Field>
int checked_log2(std::size_t n, const Field& f, const NttTables* tables) {
  if (tables == nullptr) return checked_log2(n, f.two_adicity());
  if (tables->modulus() != f.modulus()) {
    throw std::invalid_argument("ntt_inplace: twiddle table modulus mismatch");
  }
  if (n > tables->capacity()) {
    throw std::invalid_argument("ntt_inplace: twiddle table too small");
  }
  // Capacity is clamped to the field's two-adicity, so n <= capacity
  // already bounds the transform length.
  return checked_log2(n, log2_exact(tables->capacity()));
}

// The only permutation in the library: natural order <-> bit-reversed
// order, for ntt_inplace's natural-order contract.
void bit_reverse(std::vector<u64>& a) {
  const std::size_t n = a.size();
  for (std::size_t i = 1, j = 0; i < n; ++i) {
    std::size_t bit = n >> 1;
    for (; j & bit; bit >>= 1) j ^= bit;
    j ^= bit;
    if (i < j) std::swap(a[i], a[j]);
  }
}

// One DIF (forward) or DIT (inverse) pass over a[0..n) with
// field/ntt_passes.hpp's butterflies. Tabled passes take the Shoup
// stages of the tables; untabled ones compute the Montgomery-domain
// stages of this length into a scratch buffer (the top stage by a
// power chain, the lower ones strided copies, as NttTables does) and
// multiply with REDC. The lane backends run the pass in their
// vector kernels. Every combination computes the same words, so
// backends and twiddle flavours can be mixed freely.
template <class Field>
void ntt_pass(std::vector<u64>& a, bool inverse, const Field& f,
              const NttTables* tables) {
  const std::size_t n = a.size();
  if (n < 2) return;
  NttTwiddles tw;
  std::vector<u64> scratch;
  if (tables != nullptr && tables->has_shoup()) {
    const NttTables::Stage st = tables->stage(1, inverse);
    tw = {st.op, st.qt};
  } else {
    scratch.resize(n - 1);
    u64 w = f.root_of_unity(log2_exact(n));
    if (inverse) w = f.inv(w);
    const std::size_t top = n / 2 - 1;
    u64 p = f.one();
    for (std::size_t j = 0; j < n / 2; ++j) {
      scratch[top + j] = p;
      p = f.mul(p, w);
    }
    for (std::size_t half = n / 4; half >= 1; half /= 2) {
      for (std::size_t j = 0; j < half; ++j) {
        scratch[half - 1 + j] = scratch[2 * half - 1 + 2 * j];
      }
    }
    tw = {scratch.data(), nullptr};
  }
  if constexpr (FieldHasBatchKernels<Field>) {
    if (inverse) {
      f.ntt_dit(a.data(), n, tw);
    } else {
      f.ntt_dif(a.data(), n, tw);
    }
  } else if (inverse) {
    ntt_dit_scalar(f, a.data(), n, tw);
  } else {
    ntt_dif_scalar(f, a.data(), n, tw);
  }
}

// a *= 1/n, the inverse transform's final factor.
template <class Field>
void scale_by_inverse_length(std::vector<u64>& a, int lg, const Field& f,
                             const NttTables* tables) {
  const u64 n_inv = tables != nullptr
                        ? tables->n_inv(lg)
                        : f.inv(f.from_u64(std::size_t{1} << lg));
  vec_scale(f, a.data(), n_inv, a.data(), a.size());
}

// Bit-reversed spectrum of `a` (natural order): one DIF pass.
template <class Field>
void spectrum_kernel(std::vector<u64>& a, const Field& f,
                     const NttTables* tables) {
  checked_log2(a.size(), f, tables);
  ntt_pass(a, false, f, tables);
}

// Natural-order values from a bit-reversed spectrum: one DIT pass with
// the inverse twiddles, then 1/n.
template <class Field>
void from_spectrum_kernel(std::vector<u64>& a, const Field& f,
                          const NttTables* tables) {
  const int lg = checked_log2(a.size(), f, tables);
  ntt_pass(a, true, f, tables);
  scale_by_inverse_length(a, lg, f, tables);
}

// Natural order on both sides: the bit reversal sits after the
// forward DIF pass and before the inverse DIT pass.
template <class Field>
void ntt_kernel(std::vector<u64>& a, bool inverse, const Field& f,
                const NttTables* tables) {
  if (inverse) {
    checked_log2(a.size(), f, tables);
    bit_reverse(a);
    from_spectrum_kernel(a, f, tables);
  } else {
    spectrum_kernel(a, f, tables);
    bit_reverse(a);
  }
}

// Both convolution kernels transform in their own buffers and return
// the first one, so the result costs no extra copy. Neither permutes:
// the spectra stay bit-reversed between the DIF and DIT passes.
template <class Field>
std::vector<u64> convolve_kernel(std::span<const u64> a, std::span<const u64> b,
                                 const Field& f, const NttTables* tables) {
  const std::size_t out = a.size() + b.size() - 1;
  const std::size_t n = next_pow2(out);
  std::vector<u64> fa(a.begin(), a.end()), fb(b.begin(), b.end());
  fa.resize(n, 0);
  fb.resize(n, 0);
  spectrum_kernel(fa, f, tables);
  spectrum_kernel(fb, f, tables);
  vec_mul(f, fa.data(), fb.data(), fa.data(), fa.size());
  from_spectrum_kernel(fa, f, tables);
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
  spectrum_kernel(fa, f, tables);
  spectrum_kernel(fb, f, tables);
  vec_mul(f, fa.data(), fb.data(), fa.data(), fa.size());
  from_spectrum_kernel(fa, f, tables);
  return fa;
}

// Runs kernel(field) on `a` in a Montgomery domain. A PrimeField
// vector is validated first (so a failed call leaves it as it was),
// then converted in and back out; the Montgomery fields run as they
// are.
template <class Field, class Kernel>
void in_domain(std::vector<u64>& a, const Field& f, const NttTables* tables,
               Kernel kernel) {
  if constexpr (std::is_same_v<Field, PrimeField>) {
    checked_log2(a.size(), f, tables);
    const MontgomeryField m(f);
    m.to_mont_inplace(a);
    kernel(m);
    m.from_mont_inplace(a);
  } else {
    kernel(f);
  }
}

// The same for the two-operand products, which return a fresh vector.
template <class Field, class Kernel>
std::vector<u64> on_operands(std::span<const u64> a, std::span<const u64> b,
                             const Field& f, Kernel kernel) {
  if constexpr (std::is_same_v<Field, PrimeField>) {
    const MontgomeryField m(f);
    std::vector<u64> r = kernel(m.to_mont_vec(a), m.to_mont_vec(b), m);
    m.from_mont_inplace(r);
    return r;
  } else {
    return kernel(a, b, f);
  }
}

template <class Field>
std::vector<u64> convolve(std::span<const u64> a, std::span<const u64> b,
                          const Field& f, const NttTables* tables) {
  if (a.empty() || b.empty()) return {};
  return on_operands(a, b, f,
                     [&](std::span<const u64> x, std::span<const u64> y,
                         const auto& d) {
                       return convolve_kernel(x, y, d, tables);
                     });
}

template <class Field>
std::vector<u64> convolve_cyclic(std::span<const u64> a,
                                 std::span<const u64> b, std::size_t n,
                                 const Field& f, const NttTables* tables) {
  return on_operands(a, b, f,
                     [&](std::span<const u64> x, std::span<const u64> y,
                         const auto& d) {
                       return cyclic_kernel(x, y, n, d, tables);
                     });
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

template <class Field>
bool ntt_supports_size(const Field& f, std::size_t result_size) {
  const std::size_t n = next_pow2(result_size);
  return log2_exact(n) <= f.two_adicity() && n < f.modulus();
}

template <class Field>
void ntt_inplace(std::vector<u64>& a, bool inverse, const Field& f) {
  in_domain(a, f, nullptr,
            [&](const auto& d) { ntt_kernel(a, inverse, d, nullptr); });
}

template <class Field>
void ntt_inplace(std::vector<u64>& a, bool inverse, const Field& f,
                 const NttTables& tables) {
  in_domain(a, f, &tables,
            [&](const auto& d) { ntt_kernel(a, inverse, d, &tables); });
}

template <class Field>
void ntt_forward_bitrev(std::vector<u64>& a, const Field& f,
                        const NttTables* tables) {
  in_domain(a, f, tables,
            [&](const auto& d) { spectrum_kernel(a, d, tables); });
}

template <class Field>
void ntt_inverse_bitrev(std::vector<u64>& a, const Field& f,
                        const NttTables* tables) {
  in_domain(a, f, tables,
            [&](const auto& d) { from_spectrum_kernel(a, d, tables); });
}

template <class Field>
std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const Field& f) {
  return convolve(a, b, f, nullptr);
}

template <class Field>
std::vector<u64> ntt_convolve(std::span<const u64> a, std::span<const u64> b,
                              const Field& f, const NttTables& tables) {
  return convolve(a, b, f, &tables);
}

template <class Field>
std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const Field& f) {
  return convolve_cyclic(a, b, n, f, nullptr);
}

template <class Field>
std::vector<u64> ntt_convolve_cyclic(std::span<const u64> a,
                                     std::span<const u64> b, std::size_t n,
                                     const Field& f, const NttTables& tables) {
  return convolve_cyclic(a, b, n, f, &tables);
}

#define CAMELOT_NTT_INSTANTIATE(Field)                                      \
  template bool ntt_supports_size<Field>(const Field&, std::size_t);        \
  template void ntt_inplace<Field>(std::vector<u64>&, bool, const Field&);  \
  template void ntt_inplace<Field>(std::vector<u64>&, bool, const Field&,   \
                                   const NttTables&);                       \
  template void ntt_forward_bitrev<Field>(std::vector<u64>&, const Field&,  \
                                          const NttTables*);                \
  template void ntt_inverse_bitrev<Field>(std::vector<u64>&, const Field&,  \
                                          const NttTables*);                \
  template std::vector<u64> ntt_convolve<Field>(                            \
      std::span<const u64>, std::span<const u64>, const Field&);            \
  template std::vector<u64> ntt_convolve<Field>(                            \
      std::span<const u64>, std::span<const u64>, const Field&,             \
      const NttTables&);                                                    \
  template std::vector<u64> ntt_convolve_cyclic<Field>(                     \
      std::span<const u64>, std::span<const u64>, std::size_t,              \
      const Field&);                                                        \
  template std::vector<u64> ntt_convolve_cyclic<Field>(                     \
      std::span<const u64>, std::span<const u64>, std::size_t, const Field&, \
      const NttTables&);

CAMELOT_NTT_INSTANTIATE(PrimeField)
CAMELOT_NTT_INSTANTIATE(MontgomeryField)
CAMELOT_NTT_INSTANTIATE(MontgomeryAvx2Field)
CAMELOT_NTT_INSTANTIATE(MontgomeryAvx512Field)
#undef CAMELOT_NTT_INSTANTIATE

}  // namespace camelot
