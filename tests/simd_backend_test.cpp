// Property tests for the lane Montgomery backends: every lane-wide
// kernel of both widths must agree bit-for-bit with the scalar
// Montgomery pipeline on randomized inputs — including lengths that
// are not multiples of the lane width, so the one-lane tails are
// exercised — across several primes. When the process cannot run a
// width's kernels (no CPU support, or CAMELOT_FORCE_SCALAR /
// CAMELOT_FORCE_AVX2 rules it out), its differential tests are
// vacuous and are skipped with that reason so the report stays
// honest; the dispatch tests still run and pin down the fallback
// behavior.
#include <gtest/gtest.h>

#include <random>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "field/field_cache.hpp"
#include "field/field_ops.hpp"
#include "field/montgomery_lanes.hpp"
#include "field/primes.hpp"
#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"
#include "poly/ntt.hpp"
#include "poly/poly.hpp"
#include "rs/gao.hpp"
#include "rs/reed_solomon.hpp"
#include "yates/yates.hpp"

namespace camelot {
namespace {

// Lane primes (q < 2^31) of assorted sizes. 3 and 5 stress the
// tiny-modulus corners; the ~2^29 prime has two-adicity 20 for long
// transforms. The top of the lane window, where the REDC-32
// intermediates come closest to 2^64, is covered by the prime every
// benchmarked session plans (core/prime_plan.cpp takes the largest
// NTT primes below 2^31) and by 2^31 - 1, the widest modulus the lane
// constructors accept; its two-adicity is 1, so it runs the
// elementwise kernels only.
u64 two_adic_lane_prime() { return find_ntt_prime(u64{1} << 29, 20); }
constexpr u64 kSessionPrime = 2147352577;  // 2^17 * 16383 + 1
constexpr u64 kWidestLanePrime = (u64{1} << 31) - 1;

std::vector<u64> test_primes() {
  return {3,
          5,
          97,
          find_ntt_prime(1u << 12, 8),
          two_adic_lane_prime(),
          kSessionPrime,
          kWidestLanePrime};
}

std::vector<u64> random_domain_values(const MontgomeryField& m,
                                      std::size_t n, std::mt19937_64& rng) {
  std::vector<u64> out(n);
  for (u64& v : out) v = m.to_mont(rng() % m.modulus());
  return out;
}

TEST(SimdDispatch, ResolutionFollowsRuntimeSupport) {
  const PrimeField f(find_ntt_prime(1u << 12, 8));
  const FieldOps ops(f, FieldBackend::kMontgomeryAvx2);
  if (simd_runtime_enabled()) {
    EXPECT_EQ(ops.backend(), FieldBackend::kMontgomeryAvx2);
    EXPECT_TRUE(ops.simd());
  } else {
    EXPECT_EQ(ops.backend(), FieldBackend::kMontgomery);
    EXPECT_FALSE(ops.simd());
  }
  // An AVX-512 request steps down the ladder one rung at a time.
  const FieldOps ops512(f, FieldBackend::kMontgomeryAvx512);
  if (simd512_runtime_enabled()) {
    EXPECT_EQ(ops512.backend(), FieldBackend::kMontgomeryAvx512);
    EXPECT_TRUE(ops512.simd());
  } else if (simd_runtime_enabled()) {
    EXPECT_EQ(ops512.backend(), FieldBackend::kMontgomeryAvx2);
  } else {
    EXPECT_EQ(ops512.backend(), FieldBackend::kMontgomery);
  }
  // best_backend() names the top of the ladder the host can run.
  if (simd512_runtime_enabled()) {
    EXPECT_EQ(best_backend(), FieldBackend::kMontgomeryAvx512);
  } else if (simd_runtime_enabled()) {
    EXPECT_EQ(best_backend(), FieldBackend::kMontgomeryAvx2);
  } else {
    EXPECT_EQ(best_backend(), FieldBackend::kMontgomery);
  }
  // Explicit scalar requests are never upgraded.
  EXPECT_EQ(FieldOps(f, FieldBackend::kMontgomery).backend(),
            FieldBackend::kMontgomery);
  EXPECT_EQ(FieldOps(f, FieldBackend::kPrimeDivision).backend(),
            FieldBackend::kPrimeDivision);
}

TEST(SimdDispatch, WidePrimeResolvesScalar) {
  // The lane kernels implement only the REDC-32 chain (q < 2^31):
  // both lane requests resolve to scalar Montgomery for wider primes,
  // and the lane classes refuse to be built over them.
  for (u64 q : {find_ntt_prime(u64{1} << 40, 20),
                find_ntt_prime(u64{1} << 61, 8)}) {
    const PrimeField f(q);
    EXPECT_EQ(FieldOps(f, FieldBackend::kMontgomeryAvx2).backend(),
              FieldBackend::kMontgomery)
        << "q=" << q;
    EXPECT_EQ(FieldOps(f, FieldBackend::kMontgomeryAvx512).backend(),
              FieldBackend::kMontgomery)
        << "q=" << q;
    const MontgomeryField m(f);
    EXPECT_THROW(MontgomeryAvx2Field{m}, std::invalid_argument);
    EXPECT_THROW(MontgomeryAvx512Field{m}, std::invalid_argument);
  }
}

TEST(SimdDispatch, TrivialModulusAlwaysResolvesScalar) {
  // q == 2 has no Montgomery representation; the lane kernels do not
  // implement the identity-domain mode, so dispatch must refuse it and
  // the lane classes refuse to be built over it.
  const FieldOps ops(PrimeField(2), FieldBackend::kMontgomeryAvx2);
  EXPECT_EQ(ops.backend(), FieldBackend::kMontgomery);
  EXPECT_EQ(FieldOps(PrimeField(2), FieldBackend::kMontgomeryAvx512).backend(),
            FieldBackend::kMontgomery);
  const MontgomeryField m{PrimeField(2)};
  EXPECT_THROW(MontgomeryAvx2Field{m}, std::invalid_argument);
  EXPECT_THROW(MontgomeryAvx512Field{m}, std::invalid_argument);
}

// The differential tests every lane width runs, typed over the two
// lane classes; a width this process cannot run skips with the reason.
template <class Lane>
class LaneKernels : public ::testing::Test {
 protected:
  void SetUp() override {
    if constexpr (std::is_same_v<Lane, MontgomeryAvx512Field>) {
      if (!cpu_supports_avx512()) {
        GTEST_SKIP() << "host lacks AVX-512F/DQ: the 8-lane kernels cannot run";
      }
      if (!simd512_runtime_enabled()) {
        GTEST_SKIP() << "8-lane kernels forced off (CAMELOT_FORCE_SCALAR or "
                        "CAMELOT_FORCE_AVX2)";
      }
    } else {
      if (!cpu_supports_avx2()) {
        GTEST_SKIP() << "host lacks AVX2: the 4-lane kernels cannot run";
      }
      if (!simd_runtime_enabled()) {
        GTEST_SKIP() << "4-lane kernels forced off (CAMELOT_FORCE_SCALAR)";
      }
    }
  }
};

struct LaneName {
  template <class Lane>
  static std::string GetName(int) {
    return std::is_same_v<Lane, MontgomeryAvx512Field> ? "Avx512" : "Avx2";
  }
};

using LaneTypes = ::testing::Types<MontgomeryAvx2Field, MontgomeryAvx512Field>;
TYPED_TEST_SUITE(LaneKernels, LaneTypes, LaneName);

TYPED_TEST(LaneKernels, ElementwiseKernelsMatchScalar) {
  std::mt19937_64 rng(0xA2C2 + TypeParam::kLanes);
  for (u64 q : test_primes()) {
    const MontgomeryField m{PrimeField(q)};
    const TypeParam fs(m);
    // Lengths around both lane widths exercise every tail shape.
    for (std::size_t n : {1, 2, 3, 4, 5, 7, 8, 9, 13, 15, 16, 100, 1001}) {
      const std::vector<u64> a = random_domain_values(m, n, rng);
      const std::vector<u64> b = random_domain_values(m, n, rng);
      const u64 s = m.to_mont(rng() % q);
      const std::string where =
          " q=" + std::to_string(q) + " n=" + std::to_string(n);

      std::vector<u64> got(n), want(n);
      for (std::size_t i = 0; i < n; ++i) want[i] = m.mul(a[i], b[i]);
      fs.mul_vec(a.data(), b.data(), got.data(), n);
      EXPECT_EQ(got, want) << "mul_vec" << where;
      got = a;
      fs.mul_vec(got.data(), b.data(), got.data(), n);
      EXPECT_EQ(got, want) << "mul_vec in place" << where;

      for (std::size_t i = 0; i < n; ++i) want[i] = m.mul(a[i], s);
      fs.scale_vec(a.data(), s, got.data(), n);
      EXPECT_EQ(got, want) << "scale_vec" << where;
      got = a;
      fs.scale_vec(got.data(), s, got.data(), n);
      EXPECT_EQ(got, want) << "scale_vec in place" << where;

      got = a;
      fs.addmul_inplace(got.data(), s, b.data(), n);
      for (std::size_t i = 0; i < n; ++i) want[i] = m.add(a[i], m.mul(s, b[i]));
      EXPECT_EQ(got, want) << "addmul" << where;

      got = a;
      fs.submul_inplace(got.data(), s, b.data(), n);
      for (std::size_t i = 0; i < n; ++i) want[i] = m.sub(a[i], m.mul(s, b[i]));
      EXPECT_EQ(got, want) << "submul" << where;

      got = a;
      fs.add_inplace(got.data(), b.data(), n);
      for (std::size_t i = 0; i < n; ++i) want[i] = m.add(a[i], b[i]);
      EXPECT_EQ(got, want) << "add_inplace" << where;

      for (std::size_t i = 0; i < n; ++i) want[i] = m.sub(s, a[i]);
      fs.sub_from_scalar(s, a.data(), got.data(), n);
      EXPECT_EQ(got, want) << "sub_from_scalar" << where;
      got = a;
      fs.sub_from_scalar(s, got.data(), got.data(), n);
      EXPECT_EQ(got, want) << "sub_from_scalar in place" << where;

      u64 acc = 0;
      for (std::size_t i = 0; i < n; ++i) acc = m.add(acc, m.mul(a[i], b[i]));
      EXPECT_EQ(fs.dot(a.data(), b.data(), n), acc) << "dot" << where;
    }
  }
}

TYPED_TEST(LaneKernels, NttMatchesScalarTabledAndUntabled) {
  std::mt19937_64 rng(0xB3D1 + TypeParam::kLanes);
  for (u64 q :
       {find_ntt_prime(1u << 12, 14), two_adic_lane_prime(), kSessionPrime}) {
    const MontgomeryField m{PrimeField(q)};
    const TypeParam fs(m);
    const NttTables tables(m, 1u << 12);
    // Below, at and above one vector, up to a many-stage transform.
    for (std::size_t n : {1, 2, 4, 8, 16, 64, 4096}) {
      for (bool inverse : {false, true}) {
        const std::vector<u64> base = random_domain_values(m, n, rng);
        std::vector<u64> scalar = base, simd = base;
        ntt_inplace(scalar, inverse, m);
        ntt_inplace(simd, inverse, fs);
        EXPECT_EQ(simd, scalar)
            << "untabled q=" << q << " n=" << n << " inv=" << inverse;
        scalar = base;
        simd = base;
        ntt_inplace(scalar, inverse, m, tables);
        ntt_inplace(simd, inverse, fs, tables);
        EXPECT_EQ(simd, scalar)
            << "tabled q=" << q << " n=" << n << " inv=" << inverse;
      }
    }
    // Convolutions of tail-heavy (non-power-of-two) lengths.
    for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{1, 1},
                          {5, 3},
                          {513, 511},
                          {1000, 37}}) {
      const std::vector<u64> a = random_domain_values(m, na, rng);
      const std::vector<u64> b = random_domain_values(m, nb, rng);
      EXPECT_EQ(ntt_convolve(a, b, fs), ntt_convolve(a, b, m));
      EXPECT_EQ(ntt_convolve(a, b, fs, tables), ntt_convolve(a, b, m, tables));
    }
  }
}

TEST(SimdBackend, PolyKernelsMatchScalar) {
  if (!simd_runtime_enabled()) GTEST_SKIP() << "AVX2 unavailable or forced off";
  std::mt19937_64 rng(0xC4E3);
  for (u64 q : test_primes()) {
    const MontgomeryField m{PrimeField(q)};
    const MontgomeryAvx2Field fs(m);
    for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{1, 1},
                          {7, 5},
                          {40, 33},
                          {200, 100}}) {
      const Poly a{random_domain_values(m, na, rng)};
      Poly b{random_domain_values(m, nb, rng)};
      b.c.back() = m.one();  // divisor needs an invertible leading coeff
      EXPECT_TRUE(poly_equal(poly_mul_schoolbook(a, b, fs),
                             poly_mul_schoolbook(a, b, m)));
      EXPECT_TRUE(poly_equal(poly_mul_karatsuba(a, b, fs),
                             poly_mul_karatsuba(a, b, m)));
      EXPECT_TRUE(poly_equal(poly_mul(a, b, fs), poly_mul(a, b, m)));
      if (!poly_equal(b, Poly::zero())) {
        Poly qs, rs, qv, rv;
        poly_divrem(a, b, m, &qs, &rs);
        poly_divrem(a, b, fs, &qv, &rv);
        EXPECT_TRUE(poly_equal(qv, qs));
        EXPECT_TRUE(poly_equal(rv, rs));
      }
    }
  }
}

TEST(SimdBackend, MultipointTreeMatchesScalarBackend) {
  if (!simd_runtime_enabled()) GTEST_SKIP() << "AVX2 unavailable or forced off";
  std::mt19937_64 rng(0xD5F4);
  FieldCache cache;
  const u64 q = find_ntt_prime(1u << 14, 14);
  for (std::size_t n : {std::size_t{5}, std::size_t{13}, std::size_t{64},
                        std::size_t{1000}}) {
    const FieldOps scalar_ops = cache.ops(q, 2 * n, FieldBackend::kMontgomery);
    const FieldOps simd_ops =
        cache.ops(q, 2 * n, FieldBackend::kMontgomeryAvx2);
    std::vector<u64> pts(n);
    for (std::size_t i = 0; i < n; ++i) pts[i] = i + 1;
    Poly p;
    p.c.resize(n);
    for (u64& v : p.c) v = rng() % q;
    EXPECT_EQ(multipoint_evaluate(p, pts, simd_ops),
              multipoint_evaluate(p, pts, scalar_ops))
        << "evaluate n=" << n;

    std::vector<u64> ys(n);
    for (u64& v : ys) v = rng() % q;
    EXPECT_TRUE(poly_equal(interpolate(pts, ys, simd_ops),
                           interpolate(pts, ys, scalar_ops)))
        << "interpolate n=" << n;
  }
}

TEST(SimdBackend, GaoDecodeMatchesScalarBackend) {
  if (!simd_runtime_enabled()) GTEST_SKIP() << "AVX2 unavailable or forced off";
  std::mt19937_64 rng(0xE605);
  FieldCache cache;
  // Narrow primes: wide ones resolve to the scalar backend anyway.
  for (u64 q : {find_ntt_prime(1u << 12, 12), find_ntt_prime(1u << 30, 16)}) {
    for (auto [d, e] : {std::pair<std::size_t, std::size_t>{10, 31},
                        {100, 201}}) {
      const FieldOps scalar_ops =
          cache.ops(q, 2 * e, FieldBackend::kMontgomery);
      const FieldOps simd_ops =
          cache.ops(q, 2 * e, FieldBackend::kMontgomeryAvx2);
      const ReedSolomonCode cs(scalar_ops, d, e);
      const ReedSolomonCode cv(simd_ops, d, e);
      Poly msg;
      msg.c.resize(d + 1);
      for (u64& v : msg.c) v = rng() % q;
      std::vector<u64> word = cs.encode(msg);
      EXPECT_EQ(cv.encode(msg), word);
      // Corrupt up to the unique decoding radius.
      const std::size_t radius = cs.decoding_radius();
      for (std::size_t errs : {std::size_t{0}, radius / 2, radius}) {
        std::vector<u64> received = word;
        for (std::size_t t = 0; t < errs; ++t) {
          received[(t * 7919) % e] = rng() % q;
        }
        const GaoResult rs = gao_decode(cs, received);
        const GaoResult rv = gao_decode(cv, received);
        EXPECT_EQ(rv.status, rs.status);
        EXPECT_TRUE(poly_equal(rv.message, rs.message));
        EXPECT_EQ(rv.error_locations, rs.error_locations);
        EXPECT_EQ(rv.corrected, rs.corrected);
      }
    }
  }
}

TEST(SimdBackend, YatesAndLagrangeMatchScalarBackend) {
  if (!simd_runtime_enabled()) GTEST_SKIP() << "AVX2 unavailable or forced off";
  std::mt19937_64 rng(0xF716);
  const u64 q = find_ntt_prime(1u << 12, 8);
  const PrimeField f(q);
  const MontgomeryField m(f);
  const MontgomeryAvx2Field fs(m);
  // 3x2 base, k = 5: suffix pushes of every length down to 1.
  const std::size_t t_dim = 3, s_dim = 2;
  std::vector<u64> base = random_domain_values(m, t_dim * s_dim, rng);
  base[1] = m.one();  // exercise the unit-weight (add_inplace) path
  base[3] = 0;        // and the skip path
  const unsigned k = 5;
  std::vector<u64> x = random_domain_values(m, std::size_t{1} << k, rng);
  EXPECT_EQ(yates_apply(fs, base, t_dim, s_dim, x, k),
            yates_apply(m, base, t_dim, s_dim, x, k));

  const FieldOps scalar_ops(f, FieldBackend::kMontgomery);
  const FieldOps simd_ops(f, FieldBackend::kMontgomeryAvx2);
  for (std::size_t count : {std::size_t{1}, std::size_t{6}, std::size_t{49}}) {
    const ConsecutiveLagrange ls(1, count, scalar_ops);
    const ConsecutiveLagrange lv(1, count, simd_ops);
    std::vector<u64> values(count);
    for (u64& v : values) v = rng() % q;
    // Random points, plus hits on the first/last node.
    for (u64 x0 : {rng() % q, u64{1}, count}) {
      EXPECT_EQ(lv.basis_mont(x0), ls.basis_mont(x0)) << "count=" << count;
      EXPECT_EQ(lv.basis(x0), ls.basis(x0));
      EXPECT_EQ(lv.eval(values, x0), ls.eval(values, x0));
    }
  }
}

TEST(Avx512Backend, FourWayBackendBitIdentity) {
  // The full ladder — division, scalar Montgomery, AVX2, AVX-512 —
  // must produce identical encode/decode words through the RS
  // pipeline; rungs the host cannot run resolve downward and the
  // equality stays meaningful (it degenerates gracefully rather than
  // skipping outright).
  std::mt19937_64 rng(0x512C);
  FieldCache cache;
  const u64 q = find_ntt_prime(1u << 12, 12);
  const std::size_t d = 40, e = 101;
  const FieldBackend backends[] = {
      FieldBackend::kPrimeDivision, FieldBackend::kMontgomery,
      FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512};
  Poly msg;
  msg.c.resize(d + 1);
  for (u64& v : msg.c) v = rng() % q;
  std::vector<u64> ref_word;
  for (const FieldBackend b : backends) {
    const FieldOps ops = cache.ops(q, 2 * e, b);
    const ReedSolomonCode code(ops, d, e);
    std::vector<u64> word = code.encode(msg);
    if (ref_word.empty()) {
      ref_word = word;
    } else {
      EXPECT_EQ(word, ref_word) << "backend=" << static_cast<int>(b);
    }
    for (std::size_t t = 0; t < code.decoding_radius(); ++t) {
      word[(t * 7919) % e] = rng() % q;
    }
    const GaoResult r = gao_decode(code, word);
    EXPECT_EQ(r.status, DecodeStatus::kOk)
        << "backend=" << static_cast<int>(b);
    EXPECT_TRUE(poly_equal(r.message, msg))
        << "backend=" << static_cast<int>(b);
  }
}

TEST(Avx512Backend, PipelineSeamsMatchAvx2AndScalar) {
  if (!simd512_runtime_enabled()) {
    GTEST_SKIP() << "AVX-512 unavailable or forced off";
  }
  std::mt19937_64 rng(0x512D);
  FieldCache cache;
  const u64 q = find_ntt_prime(1u << 14, 14);
  const PrimeField f(q);
  const MontgomeryField m(f);
  const MontgomeryAvx512Field fs(m);
  // Poly kernels through the instantiated AVX-512 backend.
  for (auto [na, nb] : {std::pair<std::size_t, std::size_t>{7, 5},
                        {40, 33},
                        {200, 100}}) {
    const Poly a{random_domain_values(m, na, rng)};
    Poly b{random_domain_values(m, nb, rng)};
    b.c.back() = m.one();
    EXPECT_TRUE(poly_equal(poly_mul(a, b, fs), poly_mul(a, b, m)));
    Poly qs, rs, qv, rv;
    poly_divrem(a, b, m, &qs, &rs);
    poly_divrem(a, b, fs, &qv, &rv);
    EXPECT_TRUE(poly_equal(qv, qs));
    EXPECT_TRUE(poly_equal(rv, rs));
  }
  // Multipoint tree built from kMontgomeryAvx512 ops.
  const std::size_t n = 1000;
  const FieldOps scalar_ops = cache.ops(q, 2 * n, FieldBackend::kMontgomery);
  const FieldOps simd_ops =
      cache.ops(q, 2 * n, FieldBackend::kMontgomeryAvx512);
  std::vector<u64> pts(n);
  for (std::size_t i = 0; i < n; ++i) pts[i] = i + 1;
  Poly p;
  p.c.resize(n);
  for (u64& v : p.c) v = rng() % q;
  EXPECT_EQ(multipoint_evaluate(p, pts, simd_ops),
            multipoint_evaluate(p, pts, scalar_ops));
  std::vector<u64> ys(n);
  for (u64& v : ys) v = rng() % q;
  EXPECT_TRUE(poly_equal(interpolate(pts, ys, simd_ops),
                         interpolate(pts, ys, scalar_ops)));
  // Yates and Lagrange through the same seams the evaluators use.
  std::vector<u64> base = random_domain_values(m, 6, rng);
  base[1] = m.one();
  base[3] = 0;
  std::vector<u64> x = random_domain_values(m, std::size_t{1} << 5, rng);
  EXPECT_EQ(yates_apply(fs, base, 3, 2, x, 5),
            yates_apply(m, base, 3, 2, x, 5));
  const ConsecutiveLagrange ls(1, 49, scalar_ops);
  const ConsecutiveLagrange lv(1, 49, simd_ops);
  std::vector<u64> values(49);
  for (u64& v : values) v = rng() % q;
  for (u64 x0 : {rng() % q, u64{1}, u64{49}}) {
    EXPECT_EQ(lv.basis_mont(x0), ls.basis_mont(x0));
    EXPECT_EQ(lv.eval(values, x0), ls.eval(values, x0));
  }
}

}  // namespace
}  // namespace camelot
