// Tests for the half-GCD engine (poly/hgcd.hpp): bit-identity of the
// recursive cascade against the classical partial xgcd
// (poly_xgcd_partial) across base cases, backends, fallback primes and
// the Gao pairs of small codes; dense-error decodes that engage the
// cascade at the default crossover; and a golden traitor session whose
// budget clears it.
#include "poly/hgcd.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <string>
#include <tuple>
#include <utility>

#include "apps/ov.hpp"
#include "core/byzantine.hpp"
#include "core/proof_session.hpp"
#include "core/symbol_stream.hpp"
#include "field/field_cache.hpp"
#include "field/primes.hpp"
#include "rs/gao.hpp"
#include "rs/reed_solomon.hpp"

namespace camelot {
namespace {

Poly random_poly(std::size_t deg, const PrimeField& f, std::mt19937_64& rng) {
  Poly p;
  p.c.resize(deg + 1);
  for (u64& v : p.c) v = rng() % f.modulus();
  if (p.c.back() == 0) p.c.back() = 1;
  return p;
}

// A crossover above every budget in this file: xgcd_partial runs the
// classical loop from its entry call.
constexpr std::size_t kClassical = std::size_t{1} << 30;

// The crossovers the tests run xgcd_partial at: the cascade everywhere
// (1), base-casing early (8) and the default; kCrossovers adds the
// classical loop.
constexpr std::size_t kBaseCases[] = {1, 8, kHgcdCrossover};
constexpr std::size_t kCrossovers[] = {1, 8, kHgcdCrossover, kClassical};

// hgcd_detail::xgcd_partial at an explicit crossover.
template <class Field>
void xgcd_at(const Poly& a, const Poly& b, int stop, const Field& f,
             std::size_t crossover, Poly* g, Poly* u, Poly* v,
             const NttTables* tables = nullptr, XgcdStats* stats = nullptr) {
  XgcdStats local;
  hgcd_detail::xgcd_partial(a, b, stop, f, g, u, v, tables,
                            stats != nullptr ? *stats : local, crossover);
}

template <class Field>
void expect_same_xgcd(const Poly& a, const Poly& b, int stop, const Field& f,
                      std::size_t crossover, XgcdStats* stats = nullptr,
                      const NttTables* tables = nullptr) {
  Poly g1, u1, v1, g2, u2, v2;
  poly_xgcd_partial(a, b, stop, f, &g1, &u1, &v1);
  xgcd_at(a, b, stop, f, crossover, &g2, &u2, &v2, tables, stats);
  EXPECT_EQ(g1.c, g2.c) << "stop=" << stop << " crossover=" << crossover;
  EXPECT_EQ(u1.c, u2.c) << "stop=" << stop << " crossover=" << crossover;
  EXPECT_EQ(v1.c, v2.c) << "stop=" << stop << " crossover=" << crossover;
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

// Calls fn with the field class that runs `ops`'s backend, and the
// tables the decoder would hand it.
template <class Fn>
void with_backend_field(const FieldOps& ops, Fn&& fn) {
  if (ops.backend() == FieldBackend::kPrimeDivision) {
    fn(ops.prime(), static_cast<const NttTables*>(nullptr));
    return;
  }
  with_lane_field(ops.backend(), ops.mont(), [&](const auto& lane) {
    fn(lane, ops.ntt_tables().get());
  });
}

// Gao's pair for a received word: G0 and the interpolant G1 through
// the word, in the code's value domain, and the decoder's stop degree.
struct GaoPair {
  Poly g0, g1;
  int stop = 0;
};

GaoPair gao_pair(const ReedSolomonCode& code, std::vector<u64> word) {
  const FieldOps& ops = code.ops();
  if (ops.backend() != FieldBackend::kPrimeDivision) {
    for (u64& v : word) v = ops.mont().to_mont(v);
  }
  GaoPair p;
  p.g0 = code.vanishing_domain();
  p.g1 = code.interpolate_domain(word);
  p.stop = static_cast<int>((code.length() + code.degree_bound() + 1) / 2);
  return p;
}

// The decoder's remainder sequence on `word` at the default crossover
// must engage the cascade, equal the classical oracle on the same pair,
// and take as many quotient steps as the forced-classical path. Returns
// the default run's counters.
XgcdStats expect_cascade_matches_classical(const ReedSolomonCode& code,
                                           const std::vector<u64>& word) {
  const GaoPair p = gao_pair(code, word);
  XgcdStats cascade, classical;
  with_backend_field(code.ops(), [&](const auto& f, const NttTables* t) {
    expect_same_xgcd(p.g0, p.g1, p.stop, f, kHgcdCrossover, &cascade, t);
    expect_same_xgcd(p.g0, p.g1, p.stop, f, kClassical, &classical, t);
  });
  EXPECT_GT(cascade.hgcd_calls, 1u);
  EXPECT_EQ(classical.hgcd_calls, 1u);
  EXPECT_EQ(cascade.quotient_steps, classical.quotient_steps);
  return cascade;
}

TEST(Hgcd, MatchesClassicalAcrossStopsAndCrossovers) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(1);
  Poly a = random_poly(700, f, rng), b = random_poly(650, f, rng);
  for (int stop : {0, 100, 350, 699}) {
    for (std::size_t crossover : kCrossovers) {
      expect_same_xgcd(a, b, stop, f, crossover);
    }
  }
}

TEST(Hgcd, DegenerateShapes) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(2);
  Poly a = random_poly(40, f, rng), b = random_poly(80, f, rng);
  // deg b > deg a exercises the classical prelude swap.
  expect_same_xgcd(a, b, 20, f, 1);
  // Equal degrees: constant first quotient.
  Poly c = random_poly(80, f, rng);
  expect_same_xgcd(c, b, 30, f, 1);
  // Second operand already below the stop degree (phantom last step).
  Poly small = random_poly(5, f, rng);
  expect_same_xgcd(a, small, 20, f, 1);
  // Zero operands.
  expect_same_xgcd(a, Poly::zero(), 10, f, 1);
  expect_same_xgcd(Poly::zero(), a, 10, f, 1);
  // Exact division inside the sequence (gcd hit before the stop).
  Poly prod{fastdiv_detail::mul_full(std::span<const u64>(a.c),
                                     std::span<const u64>(b.c), f, nullptr)};
  expect_same_xgcd(prod, a, 3, f, 1);
}

TEST(Hgcd, QuotientStepCountInvariantAcrossCrossovers) {
  // Every certified matrix encodes genuine quotient steps, so the
  // step counter must not depend on where the recursion base-cases.
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(3);
  Poly a = random_poly(900, f, rng), b = random_poly(880, f, rng);
  XgcdStats classical, recursive;
  expect_same_xgcd(a, b, 450, f, kClassical, &classical);
  expect_same_xgcd(a, b, 450, f, 1, &recursive);
  EXPECT_EQ(classical.quotient_steps, recursive.quotient_steps);
  EXPECT_EQ(classical.hgcd_calls, 1u);  // entry call, classical base
  EXPECT_GT(recursive.hgcd_calls, 1u);
  EXPECT_GT(classical.quotient_steps, 0u);
}

TEST(Hgcd, ThreeBackendBitIdentity) {
  // Narrow prime so the AVX2 leg runs the double-REDC32 lanes the CRT
  // planner actually selects.
  PrimeField f(find_ntt_prime(1 << 20, 20));
  MontgomeryField m(f);
  std::mt19937_64 rng(4);
  Poly a = random_poly(1200, f, rng), b = random_poly(1100, f, rng);
  const int stop = 600;
  Poly gd, ud, vd;
  xgcd_at(a, b, stop, f, 1, &gd, &ud, &vd);
  Poly am{m.to_mont_vec(a.c)}, bm{m.to_mont_vec(b.c)};
  Poly gm, um, vm;
  xgcd_at(am, bm, stop, m, 1, &gm, &um, &vm);
  EXPECT_EQ(m.from_mont_vec(gm.c), gd.c);
  EXPECT_EQ(m.from_mont_vec(um.c), ud.c);
  EXPECT_EQ(m.from_mont_vec(vm.c), vd.c);
  if (!simd_runtime_enabled()) {
    GTEST_SKIP() << "AVX2 unavailable or forced off";
  }
  Poly gs, us, vs;
  xgcd_at(am, bm, stop, MontgomeryAvx2Field(m), 1, &gs, &us, &vs);
  // The lane kernels must agree with scalar Montgomery word-for-word,
  // not just canonically.
  EXPECT_EQ(gs.c, gm.c);
  EXPECT_EQ(us.c, um.c);
  EXPECT_EQ(vs.c, vm.c);
}

// With spectrum sharing, mat_apply and mat_mul transform each operand
// once and combine the spectra; they must still return exactly the
// per-entry mul_full products. Largest outputs just below, at and just
// above the NTT threshold (127, 128, 129 coefficients) and a transform
// length (511, 512, 513), and one past a power of two (2^13 + 1); zero
// and constant entries, including a whole zero row; tabled and
// untabled; every backend.
TEST(Hgcd, SharedTransformProductsMatchPerEntry) {
  const PrimeField pf(find_ntt_prime(1 << 20, 16));
  const MontgomeryField m(pf);
  const NttTables tables(m, std::size_t{1} << 14);
  const u64 q = pf.modulus();
  std::mt19937_64 rng(30);
  // Any word below q is a valid value in both domains.
  const auto poly = [&](std::size_t size) {
    Poly p;
    p.c.resize(size);
    for (u64& v : p.c) v = rng() % q;
    if (size > 0) p.c.back() = 1 + rng() % (q - 1);
    return p;
  };
  using hgcd_detail::PolyMat22;
  for (std::size_t out :
       {std::size_t{127}, std::size_t{128}, std::size_t{129}, std::size_t{511},
        std::size_t{512}, std::size_t{513}, (std::size_t{1} << 13) + 1}) {
    // m00 * a and a00 * b00 reach exactly `out` coefficients.
    PolyMat22 mixed;
    mixed.identity = false;
    mixed.m00 = poly(out / 2);
    mixed.m01 = Poly::zero();
    mixed.m10 = poly(1);
    mixed.m11 = poly(out / 3);
    PolyMat22 zero_row = mixed;
    zero_row.m10 = Poly::zero();
    zero_row.m11 = Poly::zero();
    PolyMat22 right;
    right.identity = false;
    right.m00 = poly(out - out / 2 + 1);
    right.m01 = poly(1);
    right.m10 = Poly::zero();
    right.m11 = poly(out / 5);
    const Poly a = poly(out - out / 2 + 1), b = poly(out / 4);

    const auto check = [&](const auto& f) {
      using hgcd_detail::mat_mul_poly;
      for (const NttTables* t : {static_cast<const NttTables*>(nullptr),
                                 &tables}) {
        const std::string where = "out=" + std::to_string(out) +
                                  (t != nullptr ? " tabled" : " untabled");
        const auto entry = [&](const Poly& x0, const Poly& y0, const Poly& x1,
                               const Poly& y1) {
          return poly_add(mat_mul_poly(x0, y0, f, t),
                          mat_mul_poly(x1, y1, f, t), f)
              .c;
        };
        for (const PolyMat22* mat : {&mixed, &zero_row}) {
          const auto [c, d] = hgcd_detail::mat_apply(*mat, a, b, f, t);
          EXPECT_EQ(c.c, entry(mat->m00, a, mat->m01, b)) << where;
          EXPECT_EQ(d.c, entry(mat->m10, a, mat->m11, b)) << where;
        }
        for (const auto& [x, y] :
             {std::pair<const PolyMat22*, const PolyMat22*>{&mixed, &right},
              {&zero_row, &right},
              {&right, &zero_row}}) {
          const PolyMat22 r = hgcd_detail::mat_mul(*x, *y, f, t);
          EXPECT_EQ(r.m00.c, entry(x->m00, y->m00, x->m01, y->m10)) << where;
          EXPECT_EQ(r.m01.c, entry(x->m00, y->m01, x->m01, y->m11)) << where;
          EXPECT_EQ(r.m10.c, entry(x->m10, y->m00, x->m11, y->m10)) << where;
          EXPECT_EQ(r.m11.c, entry(x->m10, y->m01, x->m11, y->m11)) << where;
        }
      }
    };
    check(pf);
    check(m);
    if (cpu_supports_avx2()) check(MontgomeryAvx2Field(m));
    if (cpu_supports_avx512()) check(MontgomeryAvx512Field(m));
  }

  // An entry longer than the shared length whose partner is zero: it
  // meets only zero and must not be transformed at that length.
  PolyMat22 long_entry;
  long_entry.identity = false;
  long_entry.m00 = poly(3000);
  long_entry.m01 = poly(300);
  long_entry.m10 = poly(2);
  long_entry.m11 = poly(300);
  const Poly b = poly(300);
  const auto [c, d] =
      hgcd_detail::mat_apply(long_entry, Poly::zero(), b, m, &tables);
  EXPECT_EQ(c.c, hgcd_detail::mat_mul_poly(long_entry.m01, b, m, &tables).c);
  EXPECT_EQ(d.c, hgcd_detail::mat_mul_poly(long_entry.m11, b, m, &tables).c);
}

TEST(Hgcd, BinaryFieldFallback) {
  // q = 2 has no NTT: every matrix product inside the cascade falls
  // back to Karatsuba/schoolbook and must still match the classical
  // sequence exactly.
  PrimeField f(2);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Poly a, b;
    a.c.resize(120);
    b.c.resize(100);
    for (u64& v : a.c) v = rng() & 1;
    for (u64& v : b.c) v = rng() & 1;
    a.c.back() = 1;
    b.c.back() = 1;
    expect_same_xgcd(a, b, 50, f, 1);
  }
}

TEST(Hgcd, WidePrimeFallback) {
  // The Mersenne prime 2^61 - 1 (two-adicity 1) has no usable NTT;
  // the cascade's products run Karatsuba on the Montgomery backend
  // and the words must match the division backend's classical run.
  const u64 q = (u64{1} << 61) - 1;
  ASSERT_TRUE(is_prime_u64(q));
  PrimeField f(q);
  MontgomeryField m(f);
  std::mt19937_64 rng(6);
  Poly a = random_poly(300, f, rng), b = random_poly(280, f, rng);
  const int stop = 150;
  Poly g1, u1, v1;
  poly_xgcd_partial(a, b, stop, f, &g1, &u1, &v1);
  Poly am{m.to_mont_vec(a.c)}, bm{m.to_mont_vec(b.c)};
  Poly g2, u2, v2;
  xgcd_at(am, bm, stop, m, 1, &g2, &u2, &v2);
  EXPECT_EQ(m.from_mont_vec(g2.c), g1.c);
  EXPECT_EQ(m.from_mont_vec(u2.c), u1.c);
  EXPECT_EQ(m.from_mont_vec(v2.c), v1.c);
}

// The Gao pairs of small codes at error weights 0, 1, radius/2, radius
// and radius + 1, on every backend: xgcd_partial must reproduce the
// classical oracle's g, u and v with the cascade forced everywhere
// (base case 1), base-casing early (8) and at the default crossover.
// Weight 0 leaves deg G1 below the stop degree (xgcd_partial's identity
// reduction); radius + 1 takes the sequence past the decodable words.
// The budgets deg G0 - stop are e/4: the e = 300 and e = 600 codes
// engage the cascade even at the default.
class GaoPairSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, FieldBackend>> {
};

TEST_P(GaoPairSweep, DriverMatchesClassicalAtEveryBaseCase) {
  const auto [e, backend] = GetParam();
  const PrimeField pf(find_ntt_prime(1 << 12, 12));
  FieldCache cache;
  const FieldOps ops = cache.ops(pf.modulus(), 2 * e, backend);
  if (ops.backend() != backend) {
    GTEST_SKIP() << backend_name(backend)
                 << " unavailable on this host or forced off";
  }
  const std::size_t d = e / 2 - 1;
  const ReedSolomonCode code(ops, d, e);
  const std::size_t radius = code.decoding_radius();
  std::mt19937_64 rng(e);
  const std::vector<u64> clean = code.encode(random_poly(d, pf, rng));
  const std::size_t weights[] = {0, 1, radius / 2, radius, radius + 1};
  for (std::size_t errors : weights) {
    std::vector<std::size_t> positions(e);
    std::iota(positions.begin(), positions.end(), std::size_t{0});
    std::shuffle(positions.begin(), positions.end(), rng);
    std::vector<u64> word = clean;
    for (std::size_t i = 0; i < errors; ++i) {
      u64& w = word[positions[i]];
      w = pf.add(w, 1 + rng() % (pf.modulus() - 1));
    }
    const GaoPair p = gao_pair(code, word);
    with_backend_field(ops, [&](const auto& f, const NttTables* t) {
      Poly g, u, v;
      poly_xgcd_partial(p.g0, p.g1, p.stop, f, &g, &u, &v);
      XgcdStats classical;
      xgcd_at(p.g0, p.g1, p.stop, f, kClassical, nullptr, nullptr, nullptr, t,
              &classical);
      for (std::size_t crossover : kBaseCases) {
        Poly hg, hu, hv;
        XgcdStats stats;
        xgcd_at(p.g0, p.g1, p.stop, f, crossover, &hg, &hu, &hv, t, &stats);
        const std::string where = "errors=" + std::to_string(errors) +
                                  " base case " + std::to_string(crossover);
        EXPECT_EQ(hg.c, g.c) << where;
        EXPECT_EQ(hu.c, u.c) << where;
        EXPECT_EQ(hv.c, v.c) << where;
        // Every certified matrix step is a genuine quotient step.
        EXPECT_EQ(stats.quotient_steps, classical.quotient_steps) << where;
      }
    });
  }
}

INSTANTIATE_TEST_SUITE_P(
    Codes, GaoPairSweep,
    ::testing::Combine(::testing::Values(16, 64, 134, 300, 600),
                       ::testing::Values(FieldBackend::kPrimeDivision,
                                         FieldBackend::kMontgomery,
                                         FieldBackend::kMontgomeryAvx2,
                                         FieldBackend::kMontgomeryAvx512)),
    [](const auto& info) {
      return "e" + std::to_string(std::get<0>(info.param)) + "_" +
             backend_name(std::get<1>(info.param));
    });

TEST(Hgcd, DenseErrorDecodeRoundTrip) {
  // e = decoding radius errors — the worst-case remainder sequence
  // (all degree-1 quotients) the half-GCD cascade exists for. The
  // budget (225) clears kHgcdCrossover, so the default decode runs the
  // cascade; it must recover the message and run the classical
  // oracle's remainder sequence.
  PrimeField f(find_ntt_prime(2048, 12));
  std::mt19937_64 rng(7);
  Poly msg = random_poly(149, f, rng);
  ReedSolomonCode code(f, 149, std::size_t{600});
  const std::vector<u64> clean = code.encode(msg);
  std::vector<u64> word = clean;
  std::mt19937_64 noise(99);
  const std::size_t radius = code.decoding_radius();
  ASSERT_EQ(radius, std::size_t{225});
  for (std::size_t i = 0; i < radius; ++i) {
    // Dense contiguous corruption with nonzero deltas.
    word[i] = f.add(word[i], 1 + noise() % (f.modulus() - 1));
  }
  const GaoResult r = gao_decode(code, word);
  ASSERT_EQ(r.status, DecodeStatus::kOk);
  EXPECT_EQ(r.message.c, msg.c);
  EXPECT_EQ(r.corrected, clean);
  EXPECT_EQ(r.error_locations.size(), radius);
  const XgcdStats cascade = expect_cascade_matches_classical(code, word);
  EXPECT_EQ(r.quotient_steps, cascade.quotient_steps);
  EXPECT_EQ(r.hgcd_calls, cascade.hgcd_calls);
}

TEST(Hgcd, BeyondRadiusStillFailsIdentically) {
  // 150 errors against radius 100, budget 100: the cascade runs and
  // the decode fails exactly where the classical sequence does.
  PrimeField f(find_ntt_prime(2048, 12));
  std::mt19937_64 rng(8);
  Poly msg = random_poly(99, f, rng);
  ReedSolomonCode code(f, 99, std::size_t{300});
  auto word = code.encode(msg);
  for (std::size_t i = 0; i < 150; ++i) {
    word[i] = f.add(word[i], 1 + (i % 5));
  }
  const GaoResult r = gao_decode(code, word);
  EXPECT_EQ(r.status, DecodeStatus::kDecodeFailure);
  const XgcdStats cascade = expect_cascade_matches_classical(code, word);
  EXPECT_EQ(r.quotient_steps, cascade.quotient_steps);
  EXPECT_EQ(r.hgcd_calls, cascade.hgcd_calls);
}

TEST(Hgcd, StreamingMatchesBarrierDecodeOnCascade) {
  // Budget 190: both decodes run the cascade.
  PrimeField f(find_ntt_prime(4096, 12));
  ReedSolomonCode code(f, 120, std::size_t{500});
  std::mt19937_64 rng(9);
  Poly msg = random_poly(120, f, rng);
  auto word = code.encode(msg);
  for (std::size_t i = 0; i < code.decoding_radius(); ++i) {
    word[(11 * i) % word.size()] = f.add(word[(11 * i) % word.size()], 7);
  }
  GaoResult barrier = gao_decode(code, word);
  StreamingGaoDecoder dec(code);
  // Absorb out of order, in uneven chunks.
  dec.absorb(300, std::span<const u64>(word).subspan(300, 200));
  dec.absorb(0, std::span<const u64>(word).subspan(0, 137));
  dec.absorb(137, std::span<const u64>(word).subspan(137, 163));
  ASSERT_TRUE(dec.ready());
  GaoResult streamed = dec.finish();
  ASSERT_EQ(barrier.status, DecodeStatus::kOk);
  EXPECT_EQ(barrier.message.c, msg.c);
  EXPECT_EQ(streamed.status, barrier.status);
  EXPECT_EQ(streamed.message.c, barrier.message.c);
  EXPECT_EQ(streamed.error_locations, barrier.error_locations);
  EXPECT_EQ(streamed.corrected, barrier.corrected);
  EXPECT_EQ(streamed.quotient_steps, barrier.quotient_steps);
  EXPECT_EQ(streamed.hgcd_calls, barrier.hgcd_calls);
  const XgcdStats cascade = expect_cascade_matches_classical(code, word);
  EXPECT_EQ(barrier.hgcd_calls, cascade.hgcd_calls);
}

TEST(Hgcd, GoldenTraitorSessionOnCascade) {
  // OV 24x8 has d = 184; at redundancy 2 every prime's decode budget
  // deg G0 - stop is about the radius (~92), past kHgcdCrossover. Two
  // random traitors among 12 nodes stay within the radius. Streaming
  // and staged runs must agree bit for bit, with brute force, and on
  // the exact traitor set.
  const BoolMatrix a = BoolMatrix::random(24, 8, 0.35, 33);
  const BoolMatrix b = BoolMatrix::random(24, 8, 0.35, 77);
  OrthogonalVectorsProblem problem(a, b);
  ClusterConfig cfg;
  cfg.num_nodes = 12;
  cfg.redundancy = 2.0;
  cfg.num_threads = 2;
  const std::vector<std::size_t> traitors = {3, 8};
  ByzantineAdversary adversary(traitors, ByzantineStrategy::kRandom, 404);

  ProofSession staged(problem, cfg);
  const RunReport b_report = staged.prepare()
                                 .transport(&adversary)
                                 .decode()
                                 .verify()
                                 .recover()
                                 .report();
  ProofSession streaming(problem, cfg);
  const RunReport a_report =
      streaming.run_streaming(AdversarialStreamingChannel(adversary));

  const std::size_t e = staged.plan().code_length;
  const std::size_t d = problem.spec().degree_bound;
  const std::size_t radius = (e - d - 1) / 2;
  ASSERT_EQ(d, std::size_t{184});
  ASSERT_GE(e - (e + d + 1) / 2, kHgcdCrossover);
  std::size_t corrupted = 0;
  for (std::size_t node : traitors) {
    const auto [lo, hi] = node_chunk(node, e, cfg.num_nodes);
    corrupted += hi - lo;
  }
  ASSERT_LE(corrupted, radius);

  ASSERT_TRUE(a_report.success);
  ASSERT_TRUE(b_report.success);
  const std::vector<u64> expect = count_orthogonal_brute(a, b);
  ASSERT_EQ(a_report.answers.size(), expect.size());
  ASSERT_EQ(b_report.answers.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(a_report.answers[i].to_u64(), expect[i]) << "row " << i;
    EXPECT_EQ(b_report.answers[i].to_u64(), expect[i]) << "row " << i;
  }
  EXPECT_EQ(a_report.implicated_nodes(), traitors);
  EXPECT_EQ(b_report.implicated_nodes(), traitors);
  ASSERT_EQ(a_report.per_prime.size(), b_report.per_prime.size());
  for (std::size_t pi = 0; pi < a_report.per_prime.size(); ++pi) {
    const PrimeRunReport& x = a_report.per_prime[pi];
    const PrimeRunReport& y = b_report.per_prime[pi];
    EXPECT_EQ(x.answer_residues, y.answer_residues);
    EXPECT_EQ(x.corrected_symbols, y.corrected_symbols);
    EXPECT_EQ(x.corrected_symbols.size(), corrupted);
    EXPECT_EQ(x.decode_quotient_steps, y.decode_quotient_steps);
    EXPECT_EQ(x.decode_hgcd_calls, y.decode_hgcd_calls);
    EXPECT_GT(x.decode_hgcd_calls, 1u);
  }
}

}  // namespace
}  // namespace camelot
