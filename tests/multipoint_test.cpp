#include "poly/multipoint.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>
#include <string>
#include <tuple>

#include "field/field_cache.hpp"
#include "field/primes.hpp"
#include "poly/lagrange.hpp"

namespace camelot {
namespace {

Poly random_poly(std::size_t deg, const PrimeField& f, std::mt19937_64& rng) {
  Poly p;
  p.c.resize(deg + 1);
  for (u64& v : p.c) v = rng() % f.modulus();
  return p;
}

std::string backend_name(FieldBackend b) {
  switch (b) {
    case FieldBackend::kPrimeDivision: return "division";
    case FieldBackend::kMontgomery: return "montgomery";
    case FieldBackend::kMontgomeryAvx2: return "avx2";
    case FieldBackend::kMontgomeryAvx512: return "avx512";
  }
  return "unknown";
}

// Point counts on both sides of the fast-division crossover
// (kFastDivCrossover = 256): from 511 points up, the descent divides
// some nodes by Newton inversion, and the smaller trees stay on
// schoolbook elimination throughout. Every backend runs every size.
class TreeSizes
    : public ::testing::TestWithParam<std::tuple<std::size_t, FieldBackend>> {
};

TEST_P(TreeSizes, EvaluateMatchesHorner) {
  PrimeField f(find_ntt_prime(1 << 12, 12));
  const auto [n, backend] = GetParam();
  FieldCache cache;
  const FieldOps ops = cache.ops(f.modulus(), 2 * n, backend);
  if (ops.backend() != backend) {
    GTEST_SKIP() << backend_name(backend)
                 << " unavailable on this host or forced off";
  }
  std::mt19937_64 rng(n);
  std::vector<u64> pts(n);
  std::iota(pts.begin(), pts.end(), u64{1});
  Poly p = random_poly(n - 1, f, rng);
  auto fast = multipoint_evaluate(p, pts, ops);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(fast[i], poly_eval(p, pts[i], f)) << "i=" << i << " n=" << n;
  }
}

TEST_P(TreeSizes, InterpolateRoundTrip) {
  PrimeField f(find_ntt_prime(1 << 12, 12));
  const auto [n, backend] = GetParam();
  FieldCache cache;
  const FieldOps ops = cache.ops(f.modulus(), 2 * n, backend);
  if (ops.backend() != backend) {
    GTEST_SKIP() << backend_name(backend)
                 << " unavailable on this host or forced off";
  }
  std::mt19937_64 rng(n + 100);
  std::vector<u64> pts(n), vals(n);
  std::iota(pts.begin(), pts.end(), u64{3});
  for (u64& v : vals) v = rng() % f.modulus();
  Poly p = interpolate(pts, vals, ops);
  EXPECT_LT(p.degree(), static_cast<int>(n));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(poly_eval(p, pts[i], f), vals[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, TreeSizes,
    ::testing::Combine(
        ::testing::Values(1, 2, 3, 5, 7, 8, 9, 16, 33, 100, 128, 200, 255, 256,
                          257, 511, 513, 1024, 2048),
        ::testing::Values(FieldBackend::kPrimeDivision,
                          FieldBackend::kMontgomery,
                          FieldBackend::kMontgomeryAvx2,
                          FieldBackend::kMontgomeryAvx512)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_" +
             backend_name(std::get<1>(info.param));
    });

TEST(Multipoint, InterpolatesProductOfLinearFactors) {
  // The values of (x-2)(x-5)(x-11) at its roots and at x = 1 determine
  // it: the interpolant is that monic cubic.
  PrimeField f(97);
  const std::vector<u64> roots = {2, 5, 11};
  Poly want = Poly::constant(1, f);
  for (u64 x : roots) want = poly_mul(want, Poly::linear_root(x, f), f);
  const std::vector<u64> pts = {2, 5, 11, 1};
  const std::vector<u64> vals = {0, 0, 0, poly_eval(want, 1, f)};
  const Poly got = interpolate(pts, vals, f);
  EXPECT_EQ(got.degree(), 3);
  EXPECT_EQ(got.c.back(), 1u);
  EXPECT_TRUE(poly_equal(got, want));
}

TEST(Multipoint, EvaluateHighDegreePolynomial) {
  // Degree of p far exceeds the number of points: the top-level
  // reduction mod the root must kick in.
  PrimeField f(7681);
  std::mt19937_64 rng(9);
  std::vector<u64> pts = {1, 2, 3, 4, 5};
  Poly p = random_poly(60, f, rng);
  auto got = multipoint_evaluate(p, pts, f);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(got[i], poly_eval(p, pts[i], f));
  }
}

TEST(Multipoint, InterpolationRecoversPolynomial) {
  PrimeField f(7681);
  std::mt19937_64 rng(10);
  Poly p = random_poly(20, f, rng);
  std::vector<u64> pts(21);
  std::iota(pts.begin(), pts.end(), u64{1});
  auto vals = multipoint_evaluate(p, pts, f);
  Poly q = interpolate(pts, vals, f);
  EXPECT_TRUE(poly_equal(p, q));
}

TEST(Multipoint, RejectsEmptyAndMismatch) {
  PrimeField f(17);
  const std::vector<u64> none;
  EXPECT_THROW(multipoint_evaluate(Poly{{1, 2}}, none, f),
               std::invalid_argument);
  EXPECT_THROW(interpolate(none, none, f), std::invalid_argument);
  const std::vector<u64> pts = {1, 2};
  const std::vector<u64> vals = {1};
  EXPECT_THROW(interpolate(pts, vals, f), std::invalid_argument);
}

// ---- Recovery kernels ----------------------------------------------------

// Each backend the host can run for q, with cached twiddle tables so
// the tabled transforms are exercised too; rungs that resolve downward
// (no AVX2 / AVX-512, or forced off) are skipped.
std::vector<FieldOps> runnable_backends(u64 q, FieldCache& cache) {
  const FieldBackend backends[] = {
      FieldBackend::kPrimeDivision, FieldBackend::kMontgomery,
      FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512};
  std::vector<FieldOps> out;
  for (const FieldBackend b : backends) {
    const FieldOps ops = cache.ops(q, std::size_t{1} << 15, b);
    if (ops.backend() == b) out.push_back(ops);
  }
  return out;
}

// Seeded random proofs of degree 0, 1, 7200 and 8192, plus the empty
// proof.
std::vector<Poly> recovery_proofs(const PrimeField& f) {
  std::mt19937_64 rng(0x5EC0);
  std::vector<Poly> out = {Poly{}};
  for (const std::size_t deg : {0, 1, 7200, 8192}) {
    out.push_back(random_poly(deg, f, rng));
  }
  return out;
}

// range_sum against sum_r poly_eval and range_evaluate against
// per-point poly_eval, bit-identical on every runnable backend.
void expect_kernels_match_horner(u64 q, u64 lo, u64 hi) {
  SCOPED_TRACE(testing::Message() << "q=" << q << " lo=" << lo << " hi=" << hi);
  const PrimeField f(q);
  FieldCache cache;
  const std::vector<FieldOps> backends = runnable_backends(q, cache);
  ASSERT_GE(backends.size(), 2u);  // division and scalar Montgomery
  for (const Poly& p : recovery_proofs(f)) {
    SCOPED_TRACE(testing::Message() << "deg=" << p.degree());
    u64 sum = 0;
    std::vector<u64> reads;
    for (u64 r = lo;; ++r) {
      reads.push_back(poly_eval(p, r, f));
      sum = f.add(sum, reads.back());
      if (r == hi) break;
    }
    for (const FieldOps& ops : backends) {
      SCOPED_TRACE(testing::Message() << "backend=" << int(ops.backend()));
      EXPECT_EQ(range_sum(p, lo, hi, ops), sum);
      EXPECT_EQ(range_evaluate(p, lo, hi, ops), reads);
    }
  }
}

TEST(RecoveryKernels, MatchHornerOnTheFormRange) {
  // The 6-clique session's range: R = 7^4 points for a degree-7200
  // proof.
  expect_kernels_match_horner(find_ntt_prime(1 << 20, 16), 1, 2401);
}

TEST(RecoveryKernels, MatchHornerFromZero) {
  // r = 0 contributes P(0) = c_0 (0^0 = 1) but no factor to D.
  expect_kernels_match_horner(find_ntt_prime(1 << 20, 16), 0, 63);
}

TEST(RecoveryKernels, MatchHornerOnOnePoint) {
  expect_kernels_match_horner(find_ntt_prime(1 << 20, 16), 777, 777);
}

TEST(RecoveryKernels, MatchHornerOnRangesLongerThanTheModulus) {
  // q = 97: the points wrap around Z_q several times (multiples of q
  // included), the count hi-lo+1 is reduced mod q, and no transform
  // fits the field, so every product runs on Karatsuba.
  expect_kernels_match_horner(97, 0, 300);
  expect_kernels_match_horner(97, 5, 392);  // exactly 4q points
}

TEST(RecoveryKernels, RangeEvaluateMatchesHornerOnTheRecoverShapes) {
  // The OV recovers: a degree-4064 proof read at 1..48 (ov-service)
  // and 1..128 (ov-receive), where every node stays below the
  // fast-division crossover, and at 1..300, where the root and its
  // 256-point child divide by Newton inversion.
  const u64 q = find_ntt_prime(1 << 20, 16);
  const PrimeField f(q);
  FieldCache cache;
  const std::vector<FieldOps> backends = runnable_backends(q, cache);
  std::mt19937_64 rng(4064);
  const Poly p = random_poly(4064, f, rng);
  for (const u64 hi : {u64{48}, u64{128}, u64{300}}) {
    std::vector<u64> reads;
    for (u64 r = 1; r <= hi; ++r) reads.push_back(poly_eval(p, r, f));
    for (const FieldOps& ops : backends) {
      EXPECT_EQ(range_evaluate(p, 1, hi, ops), reads)
          << "hi=" << hi << " backend=" << int(ops.backend());
    }
  }
}

TEST(RecoveryKernels, EmptyRangeAndTopOfU64) {
  const u64 q = find_ntt_prime(1 << 20, 16);
  const PrimeField f(q);
  std::mt19937_64 rng(3);
  const Poly p = random_poly(40, f, rng);
  EXPECT_EQ(range_sum(p, 9, 8, f), 0u);
  EXPECT_TRUE(range_evaluate(p, 9, 8, f).empty());
  EXPECT_EQ(range_power_sums(9, 8, 5, f), std::vector<u64>(5, 0));
  // The last representable points: the range loop must not wrap.
  const u64 top = ~u64{0};
  const u64 want =
      f.add(f.add(poly_eval(p, top - 2, f), poly_eval(p, top - 1, f)),
            poly_eval(p, top, f));
  EXPECT_EQ(range_sum(p, top - 2, top, f), want);
  EXPECT_EQ(range_evaluate(p, top - 2, top, f).size(), 3u);
}

TEST(Lagrange, BasisIsIndicatorOnNodes) {
  PrimeField f(7681);
  for (std::size_t count : {1u, 2u, 5u, 16u}) {
    for (std::size_t i = 0; i < count; ++i) {
      auto basis = lagrange_basis_consecutive(10, count, 10 + i, f);
      for (std::size_t j = 0; j < count; ++j) {
        EXPECT_EQ(basis[j], j == i ? 1u : 0u);
      }
    }
  }
}

TEST(Lagrange, MatchesInterpolationOffNodes) {
  PrimeField f(7681);
  std::mt19937_64 rng(11);
  const std::size_t count = 12;
  std::vector<u64> vals(count);
  for (u64& v : vals) v = rng() % f.modulus();
  std::vector<u64> pts(count);
  std::iota(pts.begin(), pts.end(), u64{1});
  Poly p = interpolate(pts, vals, f);
  for (u64 x0 : {0ull, 100ull, 5000ull, 7680ull}) {
    EXPECT_EQ(lagrange_eval_consecutive(1, vals, x0, f), poly_eval(p, x0, f))
        << x0;
  }
}

TEST(Lagrange, PartitionOfUnity) {
  // Interpolating the all-ones values gives the constant 1 polynomial,
  // so the basis values sum to 1 at any x0.
  PrimeField f(1'000'003);
  for (u64 x0 : {7ull, 123'456ull, 999'999ull}) {
    auto basis = lagrange_basis_consecutive(1, 20, x0, f);
    u64 sum = 0;
    for (u64 b : basis) sum = f.add(sum, b);
    EXPECT_EQ(sum, 1u);
  }
}

TEST(Lagrange, RejectsDegenerate) {
  PrimeField f(17);
  EXPECT_THROW(lagrange_basis_consecutive(0, 0, 1, f), std::invalid_argument);
  EXPECT_THROW(lagrange_basis_consecutive(0, 17, 1, f),
               std::invalid_argument);
}

TEST(Lagrange, StartOffsetConsistency) {
  // Basis over nodes 5..9 at x0 equals basis over 0..4 at x0-5.
  PrimeField f(101);
  auto a = lagrange_basis_consecutive(5, 5, 77, f);
  auto b = lagrange_basis_consecutive(0, 5, 72, f);
  EXPECT_EQ(a, b);
}

TEST(Lagrange, BlockBasisMatchesPerPointOnEveryBackend) {
  for (const u64 q : {u64{7681}, next_prime(u64{1} << 31)}) {
    const PrimeField f(q);
    std::mt19937_64 rng(q);
    for (const FieldBackend backend :
         {FieldBackend::kMontgomery, FieldBackend::kPrimeDivision,
          FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512}) {
      const FieldOps ops(f, backend);
      // 343 and 2401 are the triangle and clique6 basis sizes; odd and
      // even counts meet the two product chains in a middle row or
      // between two.
      for (const std::size_t count : {1u, 6u, 49u, 343u, 2401u}) {
        const u64 start = 5;
        const ConsecutiveLagrange lag(start, count, ops);
        // Node hits (first, middle, last), 0, q - 1 and random points.
        std::vector<u64> pool = {start, start + count / 2, start + count - 1,
                                 0, q - 1};
        // Kept across widths: the overload that fills a caller's
        // buffer must give the same words when it reuses the storage.
        std::vector<u64> reused;
        for (const std::size_t width :
             {1u, 3u, 8u, 15u, 16u, 17u, 31u, 33u}) {
          std::vector<u64> xs;
          for (std::size_t b = 0; b < width; ++b) {
            xs.push_back(b < pool.size() ? pool[(b + width) % pool.size()]
                                         : rng() % q);
          }
          const std::vector<u64> block = lag.basis_mont_block(xs);
          ASSERT_EQ(block.size(), count * width);
          lag.basis_mont_block(xs, reused);
          EXPECT_EQ(reused, block);
          for (std::size_t b = 0; b < width; ++b) {
            const std::vector<u64> want = lag.basis_mont(xs[b]);
            for (std::size_t i = 0; i < count; ++i) {
              EXPECT_EQ(block[i * width + b], want[i])
                  << "q=" << q << " backend=" << static_cast<int>(backend)
                  << " count=" << count << " x=" << xs[b] << " i=" << i;
            }
          }
        }
      }
      EXPECT_TRUE(ConsecutiveLagrange(1, 4, ops).basis_mont_block({}).empty());
    }
  }
}

}  // namespace
}  // namespace camelot
