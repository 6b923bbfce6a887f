#include "field/montgomery.hpp"

#include <gtest/gtest.h>

#include <random>

#include "field/primes.hpp"

namespace camelot {
namespace {

// The Montgomery backend must agree with the division-based PrimeField
// reference on every operation, over primes that stress different
// regimes: tiny, high two-adicity NTT primes (the framework's proof
// moduli) and primes hugging the 2^62 representation bound.
std::vector<u64> test_primes() {
  return {
      3,
      17,
      7681,                                  // 2^9 * 15 + 1
      65537,                                 // Fermat prime, 2^16 | q-1
      2'013'265'921,                         // 15 * 2^27 + 1, classic NTT
      find_ntt_prime(u64{1} << 40, 25),      // large + deep two-adicity
      next_prime((u64{1} << 61) - 100),      // just below 2^61
      next_prime((u64{1} << 62) - 5000),     // just below the 2^62 bound
  };
}

TEST(Montgomery, DomainRoundTrip) {
  for (u64 q : test_primes()) {
    PrimeField f(q);
    MontgomeryField m(f);
    std::mt19937_64 rng(q);
    EXPECT_EQ(m.from_mont(m.one()), 1u) << q;
    EXPECT_EQ(m.to_mont(0), 0u) << q;
    for (int i = 0; i < 200; ++i) {
      const u64 a = rng() % q;
      EXPECT_EQ(m.from_mont(m.to_mont(a)), a) << "q=" << q << " a=" << a;
    }
  }
}

TEST(Montgomery, MulAgreesWithReference) {
  for (u64 q : test_primes()) {
    PrimeField f(q);
    MontgomeryField m(f);
    std::mt19937_64 rng(q ^ 0xABCD);
    for (int i = 0; i < 500; ++i) {
      const u64 a = rng() % q, b = rng() % q;
      const u64 got = m.from_mont(m.mul(m.to_mont(a), m.to_mont(b)));
      EXPECT_EQ(got, f.mul(a, b)) << "q=" << q << " a=" << a << " b=" << b;
    }
  }
}

TEST(Montgomery, AddSubNegAgreeWithReference) {
  for (u64 q : test_primes()) {
    PrimeField f(q);
    MontgomeryField m(f);
    std::mt19937_64 rng(q ^ 0x1234);
    for (int i = 0; i < 500; ++i) {
      const u64 a = rng() % q, b = rng() % q;
      const u64 am = m.to_mont(a), bm = m.to_mont(b);
      EXPECT_EQ(m.from_mont(m.add(am, bm)), f.add(a, b)) << q;
      EXPECT_EQ(m.from_mont(m.sub(am, bm)), f.sub(a, b)) << q;
      EXPECT_EQ(m.from_mont(m.neg(am)), f.neg(a)) << q;
    }
  }
}

TEST(Montgomery, PowAgreesWithReference) {
  for (u64 q : test_primes()) {
    PrimeField f(q);
    MontgomeryField m(f);
    std::mt19937_64 rng(q ^ 0x77);
    for (int i = 0; i < 50; ++i) {
      const u64 a = rng() % q;
      const u64 e = rng();
      EXPECT_EQ(m.from_mont(m.pow(m.to_mont(a), e)), f.pow(a, e))
          << "q=" << q << " a=" << a << " e=" << e;
    }
  }
}

TEST(Montgomery, InvAgreesWithReference) {
  for (u64 q : test_primes()) {
    PrimeField f(q);
    MontgomeryField m(f);
    std::mt19937_64 rng(q ^ 0x99);
    for (int i = 0; i < 50; ++i) {
      const u64 a = 1 + rng() % (q - 1);
      const u64 am = m.to_mont(a);
      EXPECT_EQ(m.from_mont(m.inv(am)), f.inv(a)) << "q=" << q << " a=" << a;
      EXPECT_EQ(m.mul(am, m.inv(am)), m.one()) << "q=" << q << " a=" << a;
    }
    EXPECT_THROW(m.inv(0), std::invalid_argument);
  }
}

// The domain inverse goes through PrimeField's extended Euclid; it
// must still be the Fermat word (aR)^(q-2) of the domain pow.
TEST(Montgomery, InvMatchesFermat) {
  {
    MontgomeryField m(PrimeField(65537));
    for (u64 a = 1; a < 65537; ++a) {
      const u64 am = m.to_mont(a);
      ASSERT_EQ(m.inv(am), m.pow(am, 65535)) << a;
    }
  }
  for (u64 q : {u64{2147352577}, (u64{1} << 61) - 1}) {
    MontgomeryField m{PrimeField(q)};
    std::mt19937_64 rng(q ^ 0x5a);
    for (int i = 0; i < 2000; ++i) {
      const u64 am = m.to_mont(1 + rng() % (q - 1));
      const u64 r = m.inv(am);
      ASSERT_EQ(m.mul(am, r), m.one()) << "q=" << q << " am=" << am;
      ASSERT_EQ(r, m.pow(am, q - 2)) << "q=" << q << " am=" << am;
    }
    EXPECT_THROW(m.inv(0), std::invalid_argument);
  }
}

TEST(Montgomery, BatchInvMatchesScalar) {
  for (u64 q : test_primes()) {
    if (q < 100) continue;
    PrimeField f(q);
    MontgomeryField m(f);
    std::mt19937_64 rng(q ^ 0x5A5A);
    std::vector<u64> xs;
    for (int i = 0; i < 64; ++i) xs.push_back(m.to_mont(1 + rng() % (q - 1)));
    const auto inv = m.batch_inv(xs);
    ASSERT_EQ(inv.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      EXPECT_EQ(inv[i], m.inv(xs[i])) << q;
    }
    EXPECT_THROW(m.batch_inv({m.one(), 0}), std::invalid_argument);
  }
}

TEST(Montgomery, VectorConversions) {
  PrimeField f(find_ntt_prime(1 << 20, 20));
  MontgomeryField m(f);
  std::mt19937_64 rng(42);
  std::vector<u64> xs(257);
  for (u64& x : xs) x = rng();  // arbitrary, unreduced
  const std::vector<u64> mont = m.to_mont_vec(xs);
  const std::vector<u64> back = m.from_mont_vec(mont);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(back[i], f.reduce(xs[i])) << i;
  }
  std::vector<u64> inplace(xs.begin(), xs.end());
  m.to_mont_inplace(inplace);
  EXPECT_EQ(inplace, mont);
  m.from_mont_inplace(inplace);
  EXPECT_EQ(inplace, back);
}

TEST(Montgomery, FromU64EmbedsIntegers) {
  for (u64 q : test_primes()) {
    PrimeField f(q);
    MontgomeryField m(f);
    for (u64 v : {u64{0}, u64{1}, u64{2}, q - 1, q, q + 1, ~u64{0} % q}) {
      EXPECT_EQ(m.from_mont(m.from_u64(v)), v % q) << "q=" << q;
    }
  }
}

TEST(Montgomery, RootOfUnityMatchesBase) {
  PrimeField f(7681);  // two-adicity 9
  MontgomeryField m(f);
  for (int k = 0; k <= f.two_adicity(); ++k) {
    EXPECT_EQ(m.from_mont(m.root_of_unity(k)), f.root_of_unity(k)) << k;
  }
}

// q = 2 has no Montgomery representation (gcd(R, q) != 1); the
// degenerate identity-domain mode must still satisfy the field laws.
TEST(Montgomery, DegenerateModulusTwo) {
  PrimeField f(2);
  MontgomeryField m(f);
  EXPECT_EQ(m.one(), 1u);
  EXPECT_EQ(m.to_mont(1), 1u);
  EXPECT_EQ(m.from_mont(1), 1u);
  EXPECT_EQ(m.mul(1, 1), 1u);
  EXPECT_EQ(m.mul(1, 0), 0u);
  EXPECT_EQ(m.add(1, 1), 0u);
  EXPECT_EQ(m.inv(1), 1u);
  EXPECT_EQ(m.pow(1, 5), 1u);
}

// Randomized ring laws directly in the Montgomery domain, mirroring
// the PrimeField axioms test.
class MontgomeryAxioms : public ::testing::TestWithParam<u64> {};

TEST_P(MontgomeryAxioms, RingLaws) {
  PrimeField f(GetParam());
  MontgomeryField m(f);
  std::mt19937_64 rng(GetParam());
  const u64 q = f.modulus();
  for (int i = 0; i < 50; ++i) {
    const u64 a = m.to_mont(rng() % q), b = m.to_mont(rng() % q),
              c = m.to_mont(rng() % q);
    EXPECT_EQ(m.add(a, b), m.add(b, a));
    EXPECT_EQ(m.mul(a, b), m.mul(b, a));
    EXPECT_EQ(m.add(m.add(a, b), c), m.add(a, m.add(b, c)));
    EXPECT_EQ(m.mul(m.mul(a, b), c), m.mul(a, m.mul(b, c)));
    EXPECT_EQ(m.mul(a, m.add(b, c)), m.add(m.mul(a, b), m.mul(a, c)));
    EXPECT_EQ(m.sub(a, b), m.add(a, m.neg(b)));
    EXPECT_EQ(m.add(a, m.zero()), a);
    EXPECT_EQ(m.mul(a, m.one()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, MontgomeryAxioms,
                         ::testing::Values(3, 17, 97, 7681, 65537,
                                           1'000'003, 2'013'265'921));

}  // namespace
}  // namespace camelot
