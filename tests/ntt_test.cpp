#include "poly/ntt.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>
#include <string>
#include <type_traits>

#include "field/field_ops.hpp"
#include "field/montgomery_lanes.hpp"
#include "field/primes.hpp"

namespace camelot {
namespace {

TEST(Ntt, SupportsSize) {
  PrimeField f(7681);  // 7681 - 1 = 2^9 * 15 -> two-adicity 9
  EXPECT_EQ(f.two_adicity(), 9);
  EXPECT_TRUE(ntt_supports_size(f, 512));
  EXPECT_FALSE(ntt_supports_size(f, 513));
  PrimeField tiny(17);  // two-adicity 4
  EXPECT_TRUE(ntt_supports_size(tiny, 8));
  EXPECT_FALSE(ntt_supports_size(tiny, 32));
}

TEST(Ntt, ForwardInverseRoundTrip) {
  PrimeField f(7681);
  std::mt19937_64 rng(1);
  for (std::size_t n : {1u, 2u, 8u, 64u, 512u}) {
    std::vector<u64> a(n);
    for (u64& v : a) v = rng() % f.modulus();
    std::vector<u64> b = a;
    ntt_inplace(b, false, f);
    ntt_inplace(b, true, f);
    EXPECT_EQ(a, b) << "n=" << n;
  }
}

TEST(Ntt, RejectsNonPowerOfTwo) {
  PrimeField f(7681);
  std::vector<u64> a(3, 1);
  EXPECT_THROW(ntt_inplace(a, false, f), std::invalid_argument);
}

TEST(Ntt, RejectsTooLong) {
  PrimeField f(17);
  std::vector<u64> a(32, 1);
  EXPECT_THROW(ntt_inplace(a, false, f), std::invalid_argument);
}

TEST(Ntt, TransformOfDeltaIsAllOnes) {
  PrimeField f(7681);
  std::vector<u64> a(8, 0);
  a[0] = 1;
  ntt_inplace(a, false, f);
  for (u64 v : a) EXPECT_EQ(v, 1u);
}

TEST(Ntt, ConvolveMatchesSchoolbook) {
  PrimeField f(find_ntt_prime(1 << 12, 12));
  std::mt19937_64 rng(2);
  for (auto [na, nb] : {std::pair<int, int>{1, 1},
                        {3, 5},
                        {17, 64},
                        {100, 100},
                        {255, 257}}) {
    std::vector<u64> a(na), b(nb);
    for (u64& v : a) v = rng() % f.modulus();
    for (u64& v : b) v = rng() % f.modulus();
    auto fast = ntt_convolve(a, b, f);
    std::vector<u64> slow(a.size() + b.size() - 1, 0);
    for (std::size_t i = 0; i < a.size(); ++i) {
      for (std::size_t j = 0; j < b.size(); ++j) {
        slow[i + j] = f.add(slow[i + j], f.mul(a[i], b[j]));
      }
    }
    EXPECT_EQ(fast, slow) << na << "x" << nb;
  }
}

TEST(Ntt, ConvolveEmpty) {
  PrimeField f(7681);
  EXPECT_TRUE(ntt_convolve({}, {}, f).empty());
  std::vector<u64> a = {1, 2};
  EXPECT_TRUE(ntt_convolve(a, {}, f).empty());
}

TEST(NttTablesTest, TabledKernelMatchesPlainKernel) {
  PrimeField f(7681);
  MontgomeryField m(f);
  NttTables tables(m, 512);
  EXPECT_EQ(tables.capacity(), 512u);
  std::mt19937_64 rng(7);
  for (std::size_t n : {1u, 2u, 16u, 128u, 512u}) {
    std::vector<u64> a(n);
    for (u64& v : a) v = m.to_mont(rng() % f.modulus());
    for (bool inverse : {false, true}) {
      std::vector<u64> plain = a, tabled = a;
      ntt_inplace(plain, inverse, m);
      ntt_inplace(tabled, inverse, m, tables);
      EXPECT_EQ(plain, tabled) << "n=" << n << " inverse=" << inverse;
    }
  }
}

TEST(NttTablesTest, TabledConvolveMatchesPlain) {
  PrimeField f(7681);
  MontgomeryField m(f);
  NttTables tables(m, 512);
  std::mt19937_64 rng(8);
  std::vector<u64> a(100), b(57);
  for (u64& v : a) v = m.to_mont(rng() % f.modulus());
  for (u64& v : b) v = m.to_mont(rng() % f.modulus());
  EXPECT_EQ(ntt_convolve(a, b, m), ntt_convolve(a, b, m, tables));
}

TEST(NttTablesTest, CapacityClampedByTwoAdicity) {
  PrimeField tiny(17);  // two-adicity 4
  MontgomeryField m(tiny);
  NttTables tables(m, 4096);
  EXPECT_EQ(tables.capacity(), 16u);
  std::vector<u64> a(32, 1);
  EXPECT_THROW(ntt_inplace(a, false, m, tables), std::invalid_argument);
}

TEST(NttTablesTest, RejectsModulusMismatch) {
  PrimeField f(7681), g(12289);
  MontgomeryField mf(f), mg(g);
  NttTables tables(mf, 64);
  std::vector<u64> a(16, 1);
  EXPECT_THROW(ntt_inplace(a, false, mg, tables), std::invalid_argument);
}

TEST(NttShoup, TablesCarryQuotientTwins) {
  PrimeField f(7681);
  MontgomeryField m(f);
  NttTables tables(m, 512);
  EXPECT_TRUE(tables.has_shoup());
  // q == 2 has no Montgomery form, hence no Shoup twins.
  MontgomeryField m2{PrimeField(2)};
  NttTables trivial(m2, 16);
  EXPECT_FALSE(trivial.has_shoup());
}

TEST(NttShoup, TabledShoupMatchesUntabledRedcAcrossPrimeWidths) {
  // The tabled transform (Shoup quotient butterfly) must reproduce the
  // untabled one (REDC butterfly over an on-the-fly twiddle chain)
  // word for word — on narrow primes (q < 2^31, the lane-dispatch
  // regime) and on wide ones (q >= 2^32, where the quotient product
  // replaces the second widening multiply). Both transform directions
  // and convolution, across tail-heavy sizes.
  std::mt19937_64 rng(0x540F);
  for (u64 q : {u64{7681}, find_ntt_prime(1u << 29, 16),
                find_ntt_prime(u64{1} << 40, 20),
                find_ntt_prime(u64{1} << 61, 8)}) {
    PrimeField f(q);
    MontgomeryField m(f);
    NttTables tables(m, 512);
    for (std::size_t n : {1u, 2u, 16u, 128u, 512u}) {
      std::vector<u64> a(n);
      for (u64& v : a) v = m.to_mont(rng() % q);
      for (bool inverse : {false, true}) {
        std::vector<u64> redc = a, shoup = a;
        ntt_inplace(redc, inverse, m);
        ntt_inplace(shoup, inverse, m, tables);
        EXPECT_EQ(shoup, redc)
            << "q=" << q << " n=" << n << " inverse=" << inverse;
      }
    }
    std::vector<u64> a(100), b(57);
    for (u64& v : a) v = m.to_mont(rng() % q);
    for (u64& v : b) v = m.to_mont(rng() % q);
    EXPECT_EQ(ntt_convolve(a, b, m, tables), ntt_convolve(a, b, m))
        << "q=" << q;
  }
}

TEST(Ntt, LinearityProperty) {
  PrimeField f(7681);
  std::mt19937_64 rng(3);
  std::vector<u64> a(16), b(16);
  for (u64& v : a) v = rng() % f.modulus();
  for (u64& v : b) v = rng() % f.modulus();
  std::vector<u64> sum(16);
  for (int i = 0; i < 16; ++i) sum[i] = f.add(a[i], b[i]);
  auto ta = a, tb = b, ts = sum;
  ntt_inplace(ta, false, f);
  ntt_inplace(tb, false, f);
  ntt_inplace(ts, false, f);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(ts[i], f.add(ta[i], tb[i]));
  }
}

// ---- Independent order oracle ---------------------------------------------
//
// The backend-vs-backend tests cannot see a fault in code every backend
// shares (the DIF/DIT drivers, the twiddle layout, the bit reversal),
// so these compare every backend against plain O(n^2) sums that use no
// library arithmetic: u128 products, one reduction per output, the
// root found without the library's primitive_root.

u64 oracle_pow(u64 a, u64 e, u64 q) {
  u64 r = 1 % q;
  a %= q;
  for (; e > 0; e >>= 1) {
    if (e & 1) r = static_cast<u64>(static_cast<u128>(r) * a % q);
    a = static_cast<u64>(static_cast<u128>(a) * a % q);
  }
  return r;
}

// Smallest generator of Z_q^*. For small q by brute-force order
// search (walk g, g^2, ... back to 1); for large q by the order test
// over the trial-division prime factors of q - 1.
u64 oracle_generator(u64 q) {
  if (q < (u64{1} << 20)) {
    for (u64 g = 2;; ++g) {
      u64 order = 1;
      for (u64 x = g; x != 1; x = x * g % q) ++order;
      if (order == q - 1) return g;
    }
  }
  std::vector<u64> primes;
  u64 m = q - 1;
  for (u64 p = 2; p * p <= m; ++p) {
    if (m % p != 0) continue;
    primes.push_back(p);
    while (m % p == 0) m /= p;
  }
  if (m > 1) primes.push_back(m);
  for (u64 g = 2;; ++g) {
    bool full = true;
    for (u64 p : primes) full = full && oracle_pow(g, (q - 1) / p, q) != 1;
    if (full) return g;
  }
}

// out_k = scale * sum_j x_j w^(j k) mod q, naturally ordered.
std::vector<u64> oracle_dft(const std::vector<u64>& x, u64 w, u64 scale,
                            u64 q) {
  const std::size_t n = x.size();
  std::vector<u64> pw(n);
  for (std::size_t t = 0; t < n; ++t) pw[t] = oracle_pow(w, t, q);
  std::vector<u64> out(n);
  for (std::size_t k = 0; k < n; ++k) {
    u128 acc = 0;
    for (std::size_t j = 0; j < n; ++j) {
      acc += static_cast<u128>(x[j]) * pw[(j * k) & (n - 1)];
    }
    out[k] = static_cast<u64>(static_cast<u128>(acc % q) * scale % q);
  }
  return out;
}

std::size_t oracle_bitrev(std::size_t i, std::size_t n) {
  std::size_t r = 0;
  for (std::size_t bit = 1; bit < n; bit <<= 1) {
    r = (r << 1) | ((i & bit) != 0 ? 1 : 0);
  }
  return r;
}

// (a * b) mod (x^wrap - 1), or the full product when wrap == 0.
std::vector<u64> oracle_product(const std::vector<u64>& a,
                                const std::vector<u64>& b, std::size_t wrap,
                                u64 q) {
  const std::size_t full = a.size() + b.size() - 1;
  std::vector<u128> acc(wrap == 0 ? full : wrap, 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::size_t k = wrap == 0 ? i + j : (i + j) & (wrap - 1);
      acc[k] += static_cast<u128>(a[i]) * b[j] % q;
    }
  }
  std::vector<u64> out(acc.size());
  for (std::size_t k = 0; k < acc.size(); ++k) {
    out[k] = static_cast<u64>(acc[k] % q);
  }
  return out;
}

std::vector<u64> random_words(std::size_t n, u64 q, std::mt19937_64& rng) {
  std::vector<u64> v(n);
  for (u64& x : v) x = rng() % q;
  return v;
}

enum class OracleBackend { kDivision, kMontgomery, kAvx2, kAvx512 };

std::string oracle_backend_name(
    const testing::TestParamInfo<OracleBackend>& info) {
  switch (info.param) {
    case OracleBackend::kDivision:
      return "Division";
    case OracleBackend::kMontgomery:
      return "Montgomery";
    case OracleBackend::kAvx2:
      return "Avx2";
    case OracleBackend::kAvx512:
      return "Avx512";
  }
  return "Unknown";
}

class NttOracle : public testing::TestWithParam<OracleBackend> {
 protected:
  void SetUp() override {
    if (GetParam() == OracleBackend::kAvx2 && !cpu_supports_avx2()) {
      GTEST_SKIP() << "host lacks AVX2: the 4-lane kernels cannot run";
    }
    if (GetParam() == OracleBackend::kAvx512 && !cpu_supports_avx512()) {
      GTEST_SKIP() << "host lacks AVX-512F/DQ: the 8-lane kernels cannot run";
    }
  }

  // Calls fn(f) with the backend's field class over m.
  template <class Fn>
  void with_field(const MontgomeryField& m, Fn fn) const {
    switch (GetParam()) {
      case OracleBackend::kDivision:
        fn(m.base());
        break;
      case OracleBackend::kMontgomery:
        fn(m);
        break;
      case OracleBackend::kAvx2:
        fn(MontgomeryAvx2Field(m));
        break;
      case OracleBackend::kAvx512:
        fn(MontgomeryAvx512Field(m));
        break;
    }
  }
};

// Canonical words <-> the backend's domain.
template <class F>
std::vector<u64> to_domain(const F& f, std::vector<u64> v) {
  if constexpr (!std::is_same_v<F, PrimeField>) f.to_mont_inplace(v);
  return v;
}
template <class F>
std::vector<u64> to_canonical(const F& f, std::vector<u64> v) {
  if constexpr (!std::is_same_v<F, PrimeField>) f.from_mont_inplace(v);
  return v;
}

// The oracle covers two primes below the lane bound 2^31: 12289 =
// 3 * 2^12 + 1 (generator by a literal order walk) and 2013265921 =
// 15 * 2^27 + 1 (words near 2^31, where lane products are tightest).
constexpr std::size_t kOracleMaxN = std::size_t{1} << 12;

TEST_P(NttOracle, TransformsMatchOrderOracle) {
  for (u64 q : {u64{12289}, u64{2013265921}}) {
    const MontgomeryField m{PrimeField(q)};
    const NttTables tables(m, kOracleMaxN);
    const u64 g = oracle_generator(q);
    std::mt19937_64 rng(q ^ 0x0AC1E);
    for (std::size_t n = 1; n <= kOracleMaxN; n *= 2) {
      const u64 w = oracle_pow(g, (q - 1) / n, q);
      const u64 w_inv = oracle_pow(w, q - 2, q);
      const u64 n_inv = oracle_pow(n % q, q - 2, q);
      const std::vector<u64> x = random_words(n, q, rng);
      const std::vector<u64> y = random_words(n, q, rng);
      const std::vector<u64> fwd = oracle_dft(x, w, 1, q);
      const std::vector<u64> inv = oracle_dft(y, w_inv, n_inv, q);
      // The bit-reversed pair: forward is fwd permuted; inverse reads
      // its input as the spectrum at frequency bitrev(i).
      std::vector<u64> fwd_br(n), y_natural(n);
      for (std::size_t i = 0; i < n; ++i) {
        fwd_br[i] = fwd[oracle_bitrev(i, n)];
        y_natural[oracle_bitrev(i, n)] = y[i];
      }
      const std::vector<u64> inv_br = oracle_dft(y_natural, w_inv, n_inv, q);

      with_field(m, [&](const auto& f) {
        for (const NttTables* t : {static_cast<const NttTables*>(nullptr),
                                   &tables}) {
          const std::string where = "q=" + std::to_string(q) +
                                    " n=" + std::to_string(n) +
                                    (t != nullptr ? " tabled" : " untabled");
          std::vector<u64> a = to_domain(f, x), b = to_domain(f, y);
          if (t == nullptr) {
            ntt_inplace(a, false, f);
            ntt_inplace(b, true, f);
          } else {
            ntt_inplace(a, false, f, *t);
            ntt_inplace(b, true, f, *t);
          }
          EXPECT_EQ(to_canonical(f, a), fwd) << where << " forward";
          EXPECT_EQ(to_canonical(f, b), inv) << where << " inverse";
        }
        for (const NttTables* t : {static_cast<const NttTables*>(nullptr),
                                   &tables}) {
          const std::string where = "q=" + std::to_string(q) +
                                    " n=" + std::to_string(n) +
                                    (t != nullptr ? " tabled" : " untabled");
          std::vector<u64> a = to_domain(f, x), b = to_domain(f, y);
          ntt_forward_bitrev(a, f, t);
          ntt_inverse_bitrev(b, f, t);
          EXPECT_EQ(to_canonical(f, a), fwd_br) << where << " forward_bitrev";
          EXPECT_EQ(to_canonical(f, b), inv_br) << where << " inverse_bitrev";
        }
      });
    }
  }
}

TEST_P(NttOracle, ConvolutionsMatchSchoolbook) {
  for (u64 q : {u64{12289}, u64{2013265921}}) {
    const MontgomeryField m{PrimeField(q)};
    const NttTables tables(m, kOracleMaxN);
    std::mt19937_64 rng(q ^ 0xC0417);
    for (std::size_t n = 1; n <= kOracleMaxN; n *= 2) {
      // A full product of exactly n coefficients from operands of
      // n/2 + 1 and n - n/2 words, and a cyclic one mod x^n - 1 whose
      // first operand overhangs n.
      const std::vector<u64> a = random_words(n / 2 + 1, q, rng);
      const std::vector<u64> b = random_words(n - n / 2, q, rng);
      const std::vector<u64> c = random_words(n + 3, q, rng);
      const std::vector<u64> full = oracle_product(a, b, 0, q);
      const std::vector<u64> cyclic = oracle_product(c, b, n, q);
      with_field(m, [&](const auto& f) {
        const std::vector<u64> da = to_domain(f, a), db = to_domain(f, b),
                               dc = to_domain(f, c);
        const std::string where =
            "q=" + std::to_string(q) + " n=" + std::to_string(n);
        EXPECT_EQ(to_canonical(f, ntt_convolve(da, db, f)), full)
            << where << " untabled";
        EXPECT_EQ(to_canonical(f, ntt_convolve_cyclic(dc, db, n, f)), cyclic)
            << where << " cyclic untabled";
        EXPECT_EQ(to_canonical(f, ntt_convolve(da, db, f, tables)), full)
            << where << " tabled";
        EXPECT_EQ(to_canonical(f, ntt_convolve_cyclic(dc, db, n, f, tables)),
                  cyclic)
            << where << " cyclic tabled";
      });
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, NttOracle,
                         testing::Values(OracleBackend::kDivision,
                                         OracleBackend::kMontgomery,
                                         OracleBackend::kAvx2,
                                         OracleBackend::kAvx512),
                         oracle_backend_name);

}  // namespace
}  // namespace camelot
