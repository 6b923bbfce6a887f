// Tests for the quasi-linear polynomial engine (poly/fast_div.hpp):
// Newton power-series inverses, reverse-trick fast division, the
// middle/low product kernels, the subproduct-tree descent built on
// them, and the crossover dispatch — all differentially against the
// schoolbook kernels, which compute bit-identical words.
#include "poly/fast_div.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <random>

#include "apps/ov.hpp"
#include "core/proof_session.hpp"
#include "core/symbol_stream.hpp"
#include "field/primes.hpp"
#include "poly/multipoint.hpp"
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
class CrossoverGuard {
 public:
  explicit CrossoverGuard(std::size_t forced) {
    set_fastdiv_crossover(forced);
  }
  ~CrossoverGuard() { set_fastdiv_crossover(0); }
};

TEST(FastDiv, InverseSeriesIsPowerSeriesInverse) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(1);
  for (std::size_t n : {1u, 2u, 3u, 7u, 64u, 100u, 513u}) {
    Poly a = random_poly(40, f, rng);
    a.c[0] = 1 + rng() % (f.modulus() - 1);  // invertible constant term
    Poly g = poly_inverse_series(a, n, f);
    ASSERT_EQ(g.c.size(), n);  // precision contract: never trimmed
    Poly prod = poly_mul(a, g, f);
    EXPECT_EQ(prod.coeff(0), 1u) << "n=" << n;
    for (std::size_t i = 1; i < n; ++i) {
      EXPECT_EQ(prod.coeff(i), 0u) << "n=" << n << " i=" << i;
    }
  }
  EXPECT_THROW(poly_inverse_series(Poly{{0, 1}}, 4, f),
               std::invalid_argument);
  EXPECT_THROW(poly_inverse_series(Poly::zero(), 4, f),
               std::invalid_argument);
}

TEST(FastDiv, InverseSeriesExtendsFromSeed) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(2);
  Poly a = random_poly(30, f, rng);
  a.c[0] = 7;
  Poly g16 = poly_inverse_series(a, 16, f);
  Poly g100 = poly_inverse_series(a, 100, f);
  Poly ext = poly_inverse_series(a, 100, f, nullptr, &g16);
  EXPECT_EQ(ext.c, g100.c);  // resuming from a prefix changes nothing
}

TEST(FastDiv, LowAndMiddleProductsMatchFullProduct) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(3);
  Poly a = random_poly(700, f, rng), b = random_poly(350, f, rng);
  Poly full = poly_mul(a, b, f);
  auto low = poly_mul_low(a.c, b.c, 200, f);
  ASSERT_EQ(low.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_EQ(low[i], full.coeff(i));
  auto mid = poly_mul_middle(a.c, b.c, 300, 620, f);
  ASSERT_EQ(mid.size(), 320u);
  for (std::size_t i = 0; i < 320; ++i) {
    EXPECT_EQ(mid[i], full.coeff(300 + i));
  }
  // Slice past the product degree reads zero.
  auto past = poly_mul_middle(a.c, b.c, 2000, 2004, f);
  for (u64 v : past) EXPECT_EQ(v, 0u);
}

class FastDivSizes
    : public ::testing::TestWithParam<std::pair<std::size_t, std::size_t>> {};

TEST_P(FastDivSizes, MatchesSchoolbookIncludingNonMonic) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  const auto [da, db] = GetParam();
  std::mt19937_64 rng(da * 1000 + db);
  for (int trial = 0; trial < 3; ++trial) {
    Poly a = random_poly(da, f, rng);
    Poly b = random_poly(db, f, rng);
    if (trial == 1) b.c.back() = 1;                        // monic
    if (trial == 2) b.c.back() = f.modulus() - 3;          // non-monic
    Poly q1, r1, q2, r2, q3, r3;
    poly_divrem(a, b, f, &q1, &r1);
    poly_divrem_fast(a, b, f, &q2, &r2);
    poly_divrem_auto(a, b, f, &q3, &r3);
    EXPECT_EQ(q1.c, q2.c) << "da=" << da << " db=" << db;
    EXPECT_EQ(r1.c, r2.c) << "da=" << da << " db=" << db;
    EXPECT_EQ(q1.c, q3.c);
    EXPECT_EQ(r1.c, r3.c);
  }
}

// Sizes straddle the default crossover (256) and the minimum quotient
// length on both axes, including degenerate and boundary shapes.
INSTANTIATE_TEST_SUITE_P(
    Shapes, FastDivSizes,
    ::testing::Values(std::pair<std::size_t, std::size_t>{1, 1},
                      std::pair<std::size_t, std::size_t>{10, 3},
                      std::pair<std::size_t, std::size_t>{40, 50},
                      std::pair<std::size_t, std::size_t>{255, 255},
                      std::pair<std::size_t, std::size_t>{256, 255},
                      std::pair<std::size_t, std::size_t>{271, 256},
                      std::pair<std::size_t, std::size_t>{272, 256},
                      std::pair<std::size_t, std::size_t>{300, 256},
                      std::pair<std::size_t, std::size_t>{511, 257},
                      std::pair<std::size_t, std::size_t>{1024, 300},
                      std::pair<std::size_t, std::size_t>{2047, 1024}));

TEST(FastDiv, PrecomputedInverseSkipsNewton) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(4);
  Poly a = random_poly(900, f, rng);
  Poly b = random_poly(400, f, rng);
  b.c.back() = 1;  // monic, as every subproduct-tree node is
  Poly rev_b;
  rev_b.c.assign(b.c.rbegin(), b.c.rend());
  const Poly inv = poly_inverse_series(rev_b, 501, f);
  Poly q1, r1, q2, r2;
  poly_divrem(a, b, f, &q1, &r1);
  poly_divrem_fast(a, b, f, &q2, &r2, nullptr, &inv);
  EXPECT_EQ(q1.c, q2.c);
  EXPECT_EQ(r1.c, r2.c);
  // A too-short prefix is extended, not discarded.
  const Poly short_inv = poly_inverse_series(rev_b, 8, f);
  Poly q3, r3;
  poly_divrem_fast(a, b, f, &q3, &r3, nullptr, &short_inv);
  EXPECT_EQ(q1.c, q3.c);
  EXPECT_EQ(r1.c, r3.c);
}

TEST(FastDiv, BinaryFieldFallback) {
  // q = 2 runs MontgomeryField's identity-domain mode and has no NTT;
  // the Newton iteration must still match schoolbook over GF(2).
  PrimeField f(2);
  std::mt19937_64 rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    Poly a, b;
    a.c.resize(80);
    b.c.resize(17);
    for (u64& v : a.c) v = rng() & 1;
    for (u64& v : b.c) v = rng() & 1;
    a.c.back() = 1;
    b.c.back() = 1;
    Poly q1, r1, q2, r2;
    poly_divrem(a, b, f, &q1, &r1);
    poly_divrem_fast(a, b, f, &q2, &r2);
    EXPECT_EQ(q1.c, q2.c);
    EXPECT_EQ(r1.c, r2.c);
  }
}

TEST(FastDiv, WidePrimeFallback) {
  // q >= 2^31 (here the Mersenne prime 2^61 - 1, two-adicity 1): no
  // usable NTT, so every product inside the Newton iteration falls
  // back to Karatsuba — results still match schoolbook exactly. The
  // AVX2 dispatch also resolves wide primes to scalar; instantiating
  // the Montgomery backend directly exercises the arithmetic.
  const u64 q = (u64{1} << 61) - 1;
  ASSERT_TRUE(is_prime_u64(q));
  PrimeField f(q);
  MontgomeryField m(f);
  std::mt19937_64 rng(6);
  Poly a = random_poly(600, f, rng);
  Poly b = random_poly(280, f, rng);
  Poly q1, r1;
  poly_divrem(a, b, f, &q1, &r1);
  Poly am{m.to_mont_vec(a.c)}, bm{m.to_mont_vec(b.c)};
  Poly q2, r2;
  poly_divrem_fast(am, bm, m, &q2, &r2);
  EXPECT_EQ(m.from_mont_vec(q2.c), q1.c);
  EXPECT_EQ(m.from_mont_vec(r2.c), r1.c);
}

TEST(FastDiv, ThreeBackendBitIdentity) {
  // Narrow prime so the AVX2 leg runs the double-REDC32 lanes the CRT
  // planner actually selects.
  PrimeField f(find_ntt_prime(1 << 20, 20));
  MontgomeryField m(f);
  std::mt19937_64 rng(7);
  Poly a = random_poly(1500, f, rng);
  Poly b = random_poly(400, f, rng);
  Poly qd, rd;
  poly_divrem_fast(a, b, f, &qd, &rd);
  Poly am{m.to_mont_vec(a.c)}, bm{m.to_mont_vec(b.c)};
  Poly qm, rm;
  poly_divrem_fast(am, bm, m, &qm, &rm);
  EXPECT_EQ(m.from_mont_vec(qm.c), qd.c);
  EXPECT_EQ(m.from_mont_vec(rm.c), rd.c);
  if (!simd_runtime_enabled()) {
    GTEST_SKIP() << "AVX2 unavailable or forced off";
  }
  Poly qs, rs;
  poly_divrem_fast(am, bm, MontgomeryAvx2Field(m), &qs, &rs);
  // The lane kernels must agree with scalar Montgomery word-for-word,
  // not just canonically.
  EXPECT_EQ(qs.c, qm.c);
  EXPECT_EQ(rs.c, rm.c);
}

TEST(FastDiv, XgcdFastMatchesClassic) {
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(8);
  Poly a = random_poly(700, f, rng), b = random_poly(650, f, rng);
  for (int stop : {0, 100, 350, 699}) {
    Poly g1, u1, v1, g2, u2, v2;
    poly_xgcd_partial(a, b, stop, f, &g1, &u1, &v1);
    poly_xgcd_partial_fast(a, b, stop, f, &g2, &u2, &v2);
    EXPECT_EQ(g1.c, g2.c) << "stop=" << stop;
    EXPECT_EQ(u1.c, u2.c) << "stop=" << stop;
    EXPECT_EQ(v1.c, v2.c) << "stop=" << stop;
  }
}

TEST(FastDiv, TreeDescentMatchesHornerAtLargeDegree) {
  // 4096 points: the top ~4 tree levels sit above the default
  // crossover, so this exercises the cached-inverse descent for real.
  PrimeField f(find_ntt_prime(1 << 16, 16));
  const std::size_t n = 4096;
  std::vector<u64> pts(n);
  std::iota(pts.begin(), pts.end(), u64{1});
  SubproductTree tree(pts, f);
  EXPECT_GT(tree.fast_nodes(), 0u);
  std::mt19937_64 rng(9);
  Poly p = random_poly(n - 1, f, rng);
  auto fast = tree.evaluate(p, f);
  for (std::size_t i = 0; i < n; i += 97) {  // sampled Horner check
    EXPECT_EQ(fast[i], poly_eval(p, pts[i], f)) << "i=" << i;
  }
  // Interpolation round-trips through the same descent.
  Poly back = tree.interpolate(fast, f);
  EXPECT_TRUE(poly_equal(back, p));
}

TEST(FastDiv, TreeOutputsIdenticalAcrossCrossoverSettings) {
  // The schoolbook and fast descents must produce bit-identical
  // values; force each path over the same inputs and compare, with an
  // oversized dividend thrown in (root inverse extension path).
  PrimeField f(find_ntt_prime(1 << 16, 16));
  const std::size_t n = 700;  // odd tree shape, carried-up nodes
  std::vector<u64> pts(n);
  std::iota(pts.begin(), pts.end(), u64{5});
  std::mt19937_64 rng(10);
  Poly p = random_poly(2 * n + 37, f, rng);
  std::vector<u64> vals(n);
  for (u64& v : vals) v = rng() % f.modulus();

  std::vector<u64> eval_fast, eval_slow;
  Poly interp_fast, interp_slow;
  {
    CrossoverGuard guard(4);  // everything above degree 4 goes fast
    SubproductTree tree(pts, f);
    EXPECT_GT(tree.fast_nodes(), 0u);
    eval_fast = tree.evaluate(p, f);
    interp_fast = tree.interpolate(vals, f);
  }
  {
    CrossoverGuard guard(1u << 30);  // schoolbook everywhere
    SubproductTree tree(pts, f);
    EXPECT_EQ(tree.fast_nodes(), 0u);
    eval_slow = tree.evaluate(p, f);
    interp_slow = tree.interpolate(vals, f);
  }
  EXPECT_EQ(eval_fast, eval_slow);
  EXPECT_EQ(interp_fast.c, interp_slow.c);
}

TEST(FastDiv, GaoDecodeUnchangedByCrossover) {
  // The decoder's interpolation, EEA and re-encode all route through
  // the new kernels; forcing either path must not move a single word
  // of the result.
  PrimeField f(find_ntt_prime(2048, 12));
  std::mt19937_64 rng(11);
  Poly msg = random_poly(199, f, rng);
  auto decode_with = [&](std::size_t crossover) {
    CrossoverGuard guard(crossover);
    ReedSolomonCode code(f, 199, std::size_t{600});
    auto word = code.encode(msg);
    for (std::size_t i = 0; i < 150; ++i) {  // within radius (200)
      word[(7 * i) % word.size()] ^= 1;
    }
    return gao_decode(code, word);
  };
  GaoResult fast = decode_with(4);
  GaoResult slow = decode_with(1u << 30);
  ASSERT_EQ(fast.status, DecodeStatus::kOk);
  ASSERT_EQ(slow.status, DecodeStatus::kOk);
  EXPECT_EQ(fast.message.c, slow.message.c);
  EXPECT_EQ(fast.message.c, msg.c);
  EXPECT_EQ(fast.error_locations, slow.error_locations);
  EXPECT_EQ(fast.corrected, slow.corrected);
}

TEST(FastDiv, SystematicEncodeAgreesWithDecoder) {
  PrimeField f(find_ntt_prime(4096, 12));
  ReedSolomonCode code(f, 120, std::size_t{400});
  std::mt19937_64 rng(12);
  std::vector<u64> msg(121);
  for (u64& v : msg) v = rng() % f.modulus();
  auto word = code.encode_systematic(msg);
  ASSERT_EQ(word.size(), 400u);
  // Systematic property: the message symbols appear verbatim.
  for (std::size_t i = 0; i < msg.size(); ++i) EXPECT_EQ(word[i], msg[i]);
  // The word is a codeword: clean decode, and re-reading the message
  // positions of the corrected word returns the message.
  GaoResult clean = gao_decode(code, word);
  ASSERT_EQ(clean.status, DecodeStatus::kOk);
  EXPECT_TRUE(clean.error_locations.empty());
  // Corrupt up to the radius and decode back to the same codeword.
  auto corrupted = word;
  for (std::size_t i = 0; i < code.decoding_radius(); ++i) {
    corrupted[(13 * i) % corrupted.size()] ^= 3;
  }
  GaoResult fixed = gao_decode(code, corrupted);
  ASSERT_EQ(fixed.status, DecodeStatus::kOk);
  EXPECT_EQ(fixed.corrected, word);
  // Wrong message length is rejected.
  std::vector<u64> wrong(120);
  EXPECT_THROW(code.encode_systematic(wrong), std::invalid_argument);
}

TEST(FastDiv, SystematicEncodeRateOneCode) {
  PrimeField f(7681);
  ReedSolomonCode code(f, 9, std::size_t{10});
  std::vector<u64> msg(10);
  std::iota(msg.begin(), msg.end(), u64{100});
  EXPECT_EQ(code.encode_systematic(msg), msg);
}

TEST(FastDiv, GoldenSessionEqualityOnNewDescent) {
  // run_streaming vs the composed whole-session stages with every
  // tree division forced through the fast path: reports must stay
  // bit-for-bit equal, and equal to the default-crossover reference.
  OrthogonalVectorsProblem problem(BoolMatrix::random(8, 5, 0.35, 21),
                                   BoolMatrix::random(8, 5, 0.35, 42));
  ClusterConfig cfg;
  cfg.num_nodes = 4;
  cfg.redundancy = 2.0;
  cfg.num_threads = 2;

  RunReport reference = ProofSession(problem, cfg).run();
  ASSERT_TRUE(reference.success);

  CrossoverGuard guard(2);
  auto codes = std::make_shared<CodeCache>();  // fresh trees under the
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
