#include "field/primes.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace camelot {
namespace {

TEST(Primes, SmallCases) {
  EXPECT_FALSE(is_prime_u64(0));
  EXPECT_FALSE(is_prime_u64(1));
  EXPECT_TRUE(is_prime_u64(2));
  EXPECT_TRUE(is_prime_u64(3));
  EXPECT_FALSE(is_prime_u64(4));
  EXPECT_TRUE(is_prime_u64(97));
  EXPECT_FALSE(is_prime_u64(91));  // 7*13
}

TEST(Primes, SieveAgreementUpTo10000) {
  std::vector<bool> comp(10001, false);
  for (u64 i = 2; i * i <= 10000; ++i) {
    if (!comp[i]) {
      for (u64 j = i * i; j <= 10000; j += i) comp[j] = true;
    }
  }
  for (u64 n = 2; n <= 10000; ++n) {
    EXPECT_EQ(is_prime_u64(n), !comp[n]) << n;
  }
}

TEST(Primes, KnownLargePrimes) {
  EXPECT_TRUE(is_prime_u64(2'013'265'921));        // 15*2^27+1 (NTT prime)
  EXPECT_TRUE(is_prime_u64(1'000'000'007));
  EXPECT_TRUE(is_prime_u64(18'446'744'073'709'551'557ull));  // largest u64
  EXPECT_FALSE(is_prime_u64(18'446'744'073'709'551'555ull));
  // Carmichael numbers must be rejected.
  EXPECT_FALSE(is_prime_u64(561));
  EXPECT_FALSE(is_prime_u64(1105));
  EXPECT_FALSE(is_prime_u64(825'265));
}

TEST(Primes, NextPrime) {
  EXPECT_EQ(next_prime(0), 2u);
  EXPECT_EQ(next_prime(2), 2u);
  EXPECT_EQ(next_prime(3), 3u);
  EXPECT_EQ(next_prime(4), 5u);
  EXPECT_EQ(next_prime(90), 97u);
  EXPECT_EQ(next_prime(1'000'000'000), 1'000'000'007u);
}

TEST(Primes, NextPrimeRejectsAboveTwoToThe62) {
  EXPECT_THROW(next_prime(UINT64_MAX), std::invalid_argument);
  EXPECT_THROW(next_prime((u64{1} << 62) + 1), std::invalid_argument);
}

TEST(Primes, FactorizeSmall) {
  auto f = factorize(360);
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], (std::pair<u64, int>{2, 3}));
  EXPECT_EQ(f[1], (std::pair<u64, int>{3, 2}));
  EXPECT_EQ(f[2], (std::pair<u64, int>{5, 1}));
}

TEST(Primes, FactorizeSemiprime) {
  // Two 31-bit primes: forces Pollard rho.
  u64 p = 2'147'483'647, q = 2'147'483'629;
  auto f = factorize(p * q);
  ASSERT_EQ(f.size(), 2u);
  EXPECT_EQ(f[0].first, q);
  EXPECT_EQ(f[1].first, p);
}

TEST(Primes, FactorizeReconstructs) {
  for (u64 n : {1ull, 2ull, 1024ull, 360'360ull, 999'999'999'989ull,
                123'456'789'123ull}) {
    u64 prod = 1;
    for (auto [p, e] : factorize(n)) {
      EXPECT_TRUE(is_prime_u64(p)) << p;
      for (int i = 0; i < e; ++i) prod *= p;
    }
    EXPECT_EQ(prod, n);
  }
}

TEST(Primes, PrimitiveRootOrders) {
  for (u64 p : {3ull, 5ull, 97ull, 7681ull, 65537ull}) {
    u64 g = primitive_root(p);
    PrimeField f(p);
    // g must have order exactly p-1.
    for (auto [fac, _] : factorize(p - 1)) {
      EXPECT_NE(f.pow(g, (p - 1) / fac), 1u) << "p=" << p;
    }
    EXPECT_EQ(f.pow(g, p - 1), 1u);
  }
}

TEST(Primes, FindNttPrime) {
  u64 q = find_ntt_prime(1000, 12);
  EXPECT_TRUE(is_prime_u64(q));
  EXPECT_GE(q, 1000u);
  EXPECT_EQ((q - 1) % (u64{1} << 12), 0u);
  // Canonical example: the first prime = c*2^12+1 above 1000 is 12289.
  EXPECT_EQ(q, 12289u);
}

TEST(Primes, FindNttPrimesDistinctAscending) {
  auto qs = find_ntt_primes(1 << 20, 16, 5);
  ASSERT_EQ(qs.size(), 5u);
  for (std::size_t i = 0; i < qs.size(); ++i) {
    EXPECT_TRUE(is_prime_u64(qs[i]));
    EXPECT_EQ((qs[i] - 1) % (u64{1} << 16), 0u);
    if (i > 0) EXPECT_GT(qs[i], qs[i - 1]);
  }
}

// Brute force over every integer below `limit`: the largest prime q
// with 2^a | q - 1, or 0.
u64 largest_ntt_prime_below(u64 limit, int a) {
  const u64 mask = (u64{1} << a) - 1;
  for (u64 q = limit; q-- > 2;) {
    if (((q - 1) & mask) == 0 && is_prime_u64(q)) return q;
  }
  return 0;
}

TEST(Primes, FindNttPrimeBelowMatchesDescendingScan) {
  const auto check = [](u64 limit, int a) {
    const u64 q = find_ntt_prime_below(limit, a);
    EXPECT_EQ(q, largest_ntt_prime_below(limit, a))
        << "limit=" << limit << " a=" << a;
    EXPECT_LT(q, limit);
  };
  check(100, 0);
  check(3, 0);
  check(12289, 12);  // 4097 and 8193 are composite: none
  check(12290, 12);
  check(65537, 16);
  check(65538, 16);
  for (int a : {0, 1, 16, 20}) check(u64{1} << 31, a);
  // a = 0 takes every prime: the largest below 2^31 is 2^31 - 1.
  EXPECT_EQ(find_ntt_prime_below(u64{1} << 31, 0), (u64{1} << 31) - 1);
}

TEST(Primes, FindNttPrimeBelowReturnsZeroWhenNoneInRange) {
  // No c*2^31 + 1 with c >= 1 lies below 2^31.
  EXPECT_EQ(find_ntt_prime_below(u64{1} << 31, 31), 0u);
  // 2^20 + 1 is not below itself, and the only smaller candidate is 1.
  EXPECT_EQ(find_ntt_prime_below((u64{1} << 20) + 1, 20), 0u);
  EXPECT_EQ(find_ntt_prime_below(2, 0), 0u);
  EXPECT_EQ(find_ntt_prime_below(0, 0), 0u);
}

TEST(Primes, FindNttPrimeRejectsBadAdicity) {
  EXPECT_THROW(find_ntt_prime(10, -1), std::invalid_argument);
  EXPECT_THROW(find_ntt_prime(10, 61), std::invalid_argument);
  EXPECT_THROW(find_ntt_prime_below(10, -1), std::invalid_argument);
  EXPECT_THROW(find_ntt_prime_below(10, 61), std::invalid_argument);
}

}  // namespace
}  // namespace camelot
