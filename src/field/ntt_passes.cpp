#include "field/ntt_passes.hpp"

#include "field/shoup.hpp"

namespace camelot {

namespace {

// `mul(x, i)` is x times twiddle entry i. The field comes by value so
// its constants stay in registers across the stores to `a`.
template <class Mul>
void dif(const MontgomeryField m, u64* a, std::size_t n, Mul mul) noexcept {
  for (std::size_t h = n / 2; h >= 1; h /= 2) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      for (std::size_t j = 0; j < h; ++j) {
        const u64 u = a[i + j];
        const u64 v = a[i + j + h];
        a[i + j] = m.add(u, v);
        a[i + j + h] = mul(m.sub(u, v), h - 1 + j);
      }
    }
  }
}

template <class Mul>
void dit(const MontgomeryField m, u64* a, std::size_t n, Mul mul) noexcept {
  for (std::size_t h = 1; h < n; h *= 2) {
    for (std::size_t i = 0; i < n; i += 2 * h) {
      for (std::size_t j = 0; j < h; ++j) {
        const u64 u = a[i + j];
        const u64 v = mul(a[i + j + h], h - 1 + j);
        a[i + j] = m.add(u, v);
        a[i + j + h] = m.sub(u, v);
      }
    }
  }
}

// Runs `pass` with the twiddle product matching tw's flavour, chosen
// once per pass rather than per butterfly.
template <class Pass>
void with_twiddle_mul(const MontgomeryField& m, NttTwiddles tw,
                      Pass pass) noexcept {
  if (tw.qt != nullptr) {
    const u64 q = m.modulus();
    pass([=](u64 x, std::size_t i) {
      return shoup_mul(x, tw.op[i], tw.qt[i], q);
    });
  } else {
    pass([=](u64 x, std::size_t i) { return m.mul(x, tw.op[i]); });
  }
}

}  // namespace

void ntt_dif_scalar(const MontgomeryField& m, u64* a, std::size_t n,
                    NttTwiddles tw) noexcept {
  with_twiddle_mul(m, tw, [&](auto mul) { dif(m, a, n, mul); });
}

void ntt_dit_scalar(const MontgomeryField& m, u64* a, std::size_t n,
                    NttTwiddles tw) noexcept {
  with_twiddle_mul(m, tw, [&](auto mul) { dit(m, a, n, mul); });
}

}  // namespace camelot
