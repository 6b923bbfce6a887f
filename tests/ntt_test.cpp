#include "poly/ntt.hpp"

#include <gtest/gtest.h>

#include <random>

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

}  // namespace
}  // namespace camelot
