#include "field/field.hpp"

#include <gtest/gtest.h>

#include <random>

#include "field/primes.hpp"

namespace camelot {
namespace {

TEST(PrimeField, RejectsComposite) {
  EXPECT_THROW(PrimeField(91), std::invalid_argument);
  EXPECT_THROW(PrimeField(1), std::invalid_argument);
  EXPECT_THROW(PrimeField(0), std::invalid_argument);
}

TEST(PrimeField, RejectsTooLarge) {
  EXPECT_THROW(PrimeField(u64{1} << 62), std::invalid_argument);
}

TEST(PrimeField, BasicOpsSmall) {
  PrimeField f(17);
  EXPECT_EQ(f.add(9, 12), 4u);
  EXPECT_EQ(f.sub(3, 9), 11u);
  EXPECT_EQ(f.mul(5, 7), 1u);
  EXPECT_EQ(f.neg(0), 0u);
  EXPECT_EQ(f.neg(5), 12u);
  EXPECT_EQ(f.pow(2, 4), 16u);
  EXPECT_EQ(f.pow(3, 0), 1u);
}

TEST(PrimeField, InverseRoundTrip) {
  PrimeField f(1'000'003);
  for (u64 a : {1ull, 2ull, 999'999ull, 123'456ull}) {
    EXPECT_EQ(f.mul(a, f.inv(a)), 1u) << a;
  }
  EXPECT_THROW(f.inv(0), std::invalid_argument);
}

// inv is extended Euclid; inverses are unique, so it must return the
// Fermat word a^(q-2) everywhere.
TEST(PrimeField, InverseMatchesFermatExhaustivelyOn65537) {
  PrimeField f(65537);
  for (u64 a = 1; a < 65537; ++a) {
    const u64 r = f.inv(a);
    ASSERT_EQ(f.mul(a, r), 1u) << a;
    ASSERT_EQ(r, f.pow(a, 65535)) << a;
  }
  EXPECT_THROW(f.inv(0), std::invalid_argument);
}

TEST(PrimeField, InverseMatchesFermatOnLaneAndWidePrimes) {
  // The benchmark's lane prime just below 2^31 and the Mersenne prime
  // 2^61 - 1, whose Euclid cofactors come closest to the i64 range.
  for (u64 q : {u64{2147352577}, (u64{1} << 61) - 1}) {
    PrimeField f(q);
    std::mt19937_64 rng(q);
    for (int i = 0; i < 2000; ++i) {
      const u64 a = 1 + rng() % (q - 1);
      const u64 r = f.inv(a);
      ASSERT_EQ(f.mul(a, r), 1u) << "q=" << q << " a=" << a;
      ASSERT_EQ(r, f.pow(a, q - 2)) << "q=" << q << " a=" << a;
    }
    for (u64 a : {u64{1}, u64{2}, q - 1, q - 2}) {
      EXPECT_EQ(f.inv(a), f.pow(a, q - 2)) << "q=" << q << " a=" << a;
    }
    EXPECT_THROW(f.inv(0), std::invalid_argument);
  }
}

TEST(PrimeField, FermatHolds) {
  PrimeField f(101);
  for (u64 a = 1; a < 101; ++a) {
    EXPECT_EQ(f.pow(a, 100), 1u);
  }
}

TEST(PrimeField, TwoAdicityAndRoots) {
  // 97 - 1 = 96 = 2^5 * 3.
  PrimeField f(97);
  EXPECT_EQ(f.two_adicity(), 5);
  for (int k = 0; k <= 5; ++k) {
    u64 w = f.root_of_unity(k);
    EXPECT_EQ(f.pow(w, u64{1} << k), 1u);
    if (k > 0) {
      EXPECT_NE(f.pow(w, u64{1} << (k - 1)), 1u)
          << "root of unity order not exact at k=" << k;
    }
  }
  EXPECT_THROW(f.root_of_unity(6), std::invalid_argument);
}

TEST(PrimeField, GeneratorHasFullOrder) {
  for (u64 q : {5ull, 97ull, 7681ull, 1'000'003ull}) {
    PrimeField f(q);
    u64 g = f.generator();
    EXPECT_EQ(f.pow(g, q - 1), 1u);
    auto factors = factorize(q - 1);
    for (auto [p, _] : factors) {
      EXPECT_NE(f.pow(g, (q - 1) / p), 1u)
          << "generator has small order for q=" << q;
    }
  }
}

TEST(PrimeField, LargeModulusMul) {
  // q just below 2^61.
  u64 q = next_prime((u64{1} << 61) - 100);
  PrimeField f(q);
  std::mt19937_64 rng(7);
  for (int i = 0; i < 200; ++i) {
    u64 a = rng() % q, b = rng() % q;
    u64 m = f.mul(a, b);
    EXPECT_LT(m, q);
    // Check against u128 reference.
    EXPECT_EQ(m, static_cast<u64>((static_cast<u128>(a) * b) % q));
  }
}

TEST(PrimeField, BatchInvMatchesScalar) {
  PrimeField f(7681);
  std::mt19937_64 rng(3);
  std::vector<u64> xs;
  for (int i = 0; i < 64; ++i) xs.push_back(1 + rng() % 7680);
  auto inv = f.batch_inv(xs);
  ASSERT_EQ(inv.size(), xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(inv[i], f.inv(xs[i]));
  }
}

TEST(PrimeField, BatchInvRejectsZero) {
  PrimeField f(17);
  EXPECT_THROW(f.batch_inv({1, 0, 2}), std::invalid_argument);
}

TEST(PrimeField, FromSigned) {
  PrimeField f(13);
  EXPECT_EQ(f.from_signed(-1), 12u);
  EXPECT_EQ(f.from_signed(-13), 0u);
  EXPECT_EQ(f.from_signed(-27), 12u);
  EXPECT_EQ(f.from_signed(27), 1u);
}

class FieldAxioms : public ::testing::TestWithParam<u64> {};

TEST_P(FieldAxioms, RingLaws) {
  PrimeField f(GetParam());
  std::mt19937_64 rng(GetParam());
  const u64 q = f.modulus();
  for (int i = 0; i < 50; ++i) {
    u64 a = rng() % q, b = rng() % q, c = rng() % q;
    EXPECT_EQ(f.add(a, b), f.add(b, a));
    EXPECT_EQ(f.mul(a, b), f.mul(b, a));
    EXPECT_EQ(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
    EXPECT_EQ(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
    EXPECT_EQ(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
    EXPECT_EQ(f.sub(a, b), f.add(a, f.neg(b)));
    EXPECT_EQ(f.add(a, 0), a);
    EXPECT_EQ(f.mul(a, f.one()), a);
  }
}

INSTANTIATE_TEST_SUITE_P(Moduli, FieldAxioms,
                         ::testing::Values(2, 3, 17, 97, 7681, 65537,
                                           1'000'003, 2'013'265'921));

}  // namespace
}  // namespace camelot
