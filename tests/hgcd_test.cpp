// Tests for the half-GCD engine (poly/hgcd.hpp): bit-identity of the
// recursive cascade against the classical partial xgcd across forced
// crossovers, backends and fallback primes; dense-error decode round
// trips through the Gao dispatcher; and golden streaming-vs-barrier
// session equality on the forced-HGCD path.
#include "poly/hgcd.hpp"

#include <gtest/gtest.h>

#include <random>
#include <string>
#include <utility>

#include "apps/ov.hpp"
#include "core/proof_session.hpp"
#include "core/symbol_stream.hpp"
#include "field/primes.hpp"
#include "rs/code_cache.hpp"
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

// RAII crossover override so a test forcing either path can never
// leak its setting into the rest of the suite.
class HgcdGuard {
 public:
  explicit HgcdGuard(std::size_t forced) { set_hgcd_crossover(forced); }
  ~HgcdGuard() { set_hgcd_crossover(0); }
};

void expect_same_xgcd(const Poly& a, const Poly& b, int stop,
                      const PrimeField& f, std::size_t crossover,
                      XgcdStats* stats = nullptr) {
  Poly g1, u1, v1, g2, u2, v2;
  poly_xgcd_partial(a, b, stop, f, &g1, &u1, &v1);
  poly_xgcd_partial_hgcd(a, b, stop, f, &g2, &u2, &v2, nullptr, stats,
                         crossover);
  EXPECT_EQ(g1.c, g2.c) << "stop=" << stop << " crossover=" << crossover;
  EXPECT_EQ(u1.c, u2.c) << "stop=" << stop << " crossover=" << crossover;
  EXPECT_EQ(v1.c, v2.c) << "stop=" << stop << " crossover=" << crossover;
}

TEST(Hgcd, MatchesClassicalAcrossStopsAndCrossovers) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(1);
  Poly a = random_poly(700, f, rng), b = random_poly(650, f, rng);
  for (int stop : {0, 100, 350, 699}) {
    for (std::size_t crossover : {std::size_t{1}, std::size_t{8},
                                  std::size_t{64}, std::size_t{1} << 30}) {
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
  expect_same_xgcd(a, b, 450, f, std::size_t{1} << 30, &classical);
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
  poly_xgcd_partial_hgcd(a, b, stop, f, &gd, &ud, &vd, nullptr, nullptr, 1);
  Poly am{m.to_mont_vec(a.c)}, bm{m.to_mont_vec(b.c)};
  Poly gm, um, vm;
  poly_xgcd_partial_hgcd(am, bm, stop, m, &gm, &um, &vm, nullptr, nullptr, 1);
  EXPECT_EQ(m.from_mont_vec(gm.c), gd.c);
  EXPECT_EQ(m.from_mont_vec(um.c), ud.c);
  EXPECT_EQ(m.from_mont_vec(vm.c), vd.c);
  if (!simd_runtime_enabled()) {
    GTEST_SKIP() << "AVX2 unavailable or forced off";
  }
  Poly gs, us, vs;
  poly_xgcd_partial_hgcd(am, bm, stop, MontgomeryAvx2Field(m), &gs, &us, &vs,
                         nullptr, nullptr, 1);
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
  poly_xgcd_partial_hgcd(am, bm, stop, m, &g2, &u2, &v2, nullptr, nullptr, 1);
  EXPECT_EQ(m.from_mont_vec(g2.c), g1.c);
  EXPECT_EQ(m.from_mont_vec(u2.c), u1.c);
  EXPECT_EQ(m.from_mont_vec(v2.c), v1.c);
}

TEST(Hgcd, DenseErrorDecodeRoundTrip) {
  // e = decoding radius errors — the worst-case remainder sequence
  // (all degree-1 quotients) the half-GCD cascade exists for. The
  // forced-HGCD decode must recover the message and agree word-for-
  // word with the forced-classical decode.
  PrimeField f(find_ntt_prime(2048, 12));
  std::mt19937_64 rng(7);
  Poly msg = random_poly(149, f, rng);
  auto decode_with = [&](std::size_t crossover) {
    HgcdGuard guard(crossover);
    ReedSolomonCode code(f, 149, std::size_t{600});
    auto word = code.encode(msg);
    std::mt19937_64 noise(99);
    const std::size_t radius = code.decoding_radius();  // 225
    for (std::size_t i = 0; i < radius; ++i) {
      // Dense contiguous corruption with nonzero deltas.
      word[i] = f.add(word[i], 1 + noise() % (f.modulus() - 1));
    }
    return gao_decode(code, word);
  };
  GaoResult hg = decode_with(1);
  GaoResult cl = decode_with(std::size_t{1} << 30);
  ASSERT_EQ(hg.status, DecodeStatus::kOk);
  ASSERT_EQ(cl.status, DecodeStatus::kOk);
  EXPECT_EQ(hg.message.c, cl.message.c);
  EXPECT_EQ(hg.message.c, msg.c);
  EXPECT_EQ(hg.error_locations, cl.error_locations);
  EXPECT_EQ(hg.corrected, cl.corrected);
  EXPECT_EQ(hg.error_locations.size(), std::size_t{225});
  EXPECT_EQ(hg.quotient_steps, cl.quotient_steps);
  EXPECT_GT(hg.hgcd_calls, 1u);
  EXPECT_EQ(cl.hgcd_calls, 1u);
}

TEST(Hgcd, BeyondRadiusStillFailsIdentically) {
  PrimeField f(find_ntt_prime(2048, 12));
  std::mt19937_64 rng(8);
  Poly msg = random_poly(99, f, rng);
  auto decode_with = [&](std::size_t crossover) {
    HgcdGuard guard(crossover);
    ReedSolomonCode code(f, 99, std::size_t{300});
    auto word = code.encode(msg);
    for (std::size_t i = 0; i < 150; ++i) {  // radius is 100
      word[i] = f.add(word[i], 1 + (i % 5));
    }
    return gao_decode(code, word);
  };
  GaoResult hg = decode_with(1);
  GaoResult cl = decode_with(std::size_t{1} << 30);
  EXPECT_EQ(hg.status, cl.status);
  EXPECT_EQ(hg.quotient_steps, cl.quotient_steps);
}

TEST(Hgcd, StreamingMatchesBarrierDecodeForcedHgcd) {
  HgcdGuard guard(1);
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
  EXPECT_EQ(streamed.status, barrier.status);
  EXPECT_EQ(streamed.message.c, barrier.message.c);
  EXPECT_EQ(streamed.error_locations, barrier.error_locations);
  EXPECT_EQ(streamed.corrected, barrier.corrected);
  EXPECT_EQ(streamed.quotient_steps, barrier.quotient_steps);
  EXPECT_EQ(streamed.hgcd_calls, barrier.hgcd_calls);
}

TEST(Hgcd, GoldenSessionEqualityForcedHgcd) {
  // run_streaming vs the composed whole-session stages with the
  // remainder sequence forced through the recursive cascade: reports
  // must stay bit-for-bit equal, and equal to the default-crossover
  // reference.
  OrthogonalVectorsProblem problem(BoolMatrix::random(8, 5, 0.35, 33),
                                   BoolMatrix::random(8, 5, 0.35, 77));
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;
  cfg.num_threads = 2;

  RunReport reference = ProofSession(problem, cfg).run();
  ASSERT_TRUE(reference.success);

  HgcdGuard guard(1);
  auto codes = std::make_shared<CodeCache>();  // fresh codes under the
                                               // forced crossover
  ProofSession streaming(problem, cfg, nullptr, nullptr, codes);
  RunReport a = streaming.run_streaming(LosslessStreamingChannel());
  ProofSession barrier(problem, cfg, nullptr, nullptr, codes);
  RunReport b = barrier.prepare()
                    .transport()
                    .decode()
                    .verify()
                    .recover()
                    .report();

  ASSERT_TRUE(a.success);
  ASSERT_TRUE(b.success);
  ASSERT_EQ(a.answers.size(), reference.answers.size());
  for (std::size_t i = 0; i < a.answers.size(); ++i) {
    EXPECT_EQ(a.answers[i], b.answers[i]);
    EXPECT_EQ(a.answers[i], reference.answers[i]);
  }
  for (std::size_t pi = 0; pi < a.per_prime.size(); ++pi) {
    EXPECT_EQ(a.per_prime[pi].answer_residues,
              b.per_prime[pi].answer_residues);
    EXPECT_EQ(a.per_prime[pi].corrected_symbols,
              b.per_prime[pi].corrected_symbols);
  }
}

}  // namespace
}  // namespace camelot
