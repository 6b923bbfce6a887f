#include "rs/gao.hpp"
#include "rs/reed_solomon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <numeric>
#include <random>
#include <thread>

#include "field/field_cache.hpp"
#include "field/primes.hpp"
#include "rs/code_cache.hpp"

namespace camelot {
namespace {

Poly random_message(std::size_t d, const PrimeField& f,
                    std::mt19937_64& rng) {
  Poly p;
  p.c.resize(d + 1);
  for (u64& v : p.c) v = rng() % f.modulus();
  return p;
}

// ---- Oracle: plain modular arithmetic, independent of the library ----

u64 mulmod(u64 a, u64 b, u64 q) {
  return static_cast<u64>(static_cast<unsigned __int128>(a) * b % q);
}

u64 powmod(u64 a, u64 k, u64 q) {
  u64 r = 1 % q;
  for (; k != 0; k >>= 1, a = mulmod(a, a, q)) {
    if (k & 1) r = mulmod(r, a, q);
  }
  return r;
}

u64 invmod(u64 a, u64 q) { return powmod(a, q - 2, q); }

// Multiplicative order of a in Z_q^*, by walking its powers.
u64 order_of(u64 a, u64 q) {
  u64 k = 1;
  for (u64 x = a; x != 1; x = mulmod(x, a, q)) ++k;
  return k;
}

// The code's root of unity: w = g^((q-1)/n) for the smallest
// generator g of Z_q^*, found by brute force; n = bit_ceil(e).
u64 oracle_root(u64 q, std::size_t e) {
  const u64 n = std::bit_ceil(e);
  u64 g = 2;
  while (q > 2 && order_of(g, q) != q - 1) ++g;
  const u64 w = powmod(q == 2 ? 1 : g, (q - 1) / n, q);
  EXPECT_EQ(order_of(w, q), n);
  return w;
}

std::vector<u64> oracle_points(u64 q, std::size_t e) {
  const u64 w = oracle_root(q, e);
  std::vector<u64> x(e);
  for (std::size_t i = 0; i < e; ++i) x[i] = powmod(w, i, q);
  return x;
}

u64 horner(const std::vector<u64>& c, u64 x, u64 q) {
  u64 acc = 0;
  for (std::size_t i = c.size(); i-- > 0;) acc = (mulmod(acc, x, q) + c[i]) % q;
  return acc;
}

// prod_j (x - roots_j), coefficients low to high.
std::vector<u64> product_of_roots(const std::vector<u64>& roots, u64 q) {
  std::vector<u64> z = {1};
  for (u64 r : roots) {
    std::vector<u64> next(z.size() + 1, 0);
    for (std::size_t i = 0; i < z.size(); ++i) {
      next[i + 1] = (next[i + 1] + z[i]) % q;
      next[i] = (next[i] + q - mulmod(z[i], r, q)) % q;
    }
    z = std::move(next);
  }
  return z;
}

// Lagrange interpolant through (xs_i, ys_i), O(e^2): sum_i y_i *
// (Z / (x - x_i)) / prod_{j != i} (x_i - x_j). Trimmed.
std::vector<u64> lagrange(const std::vector<u64>& xs,
                          const std::vector<u64>& ys, u64 q) {
  const std::vector<u64> z = product_of_roots(xs, q);
  std::vector<u64> out(xs.size(), 0);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    // Synthetic division of z by (x - x_i).
    std::vector<u64> quo(xs.size(), 0);
    u64 carry = 0;
    for (std::size_t k = xs.size(); k-- > 0;) {
      carry = (z[k + 1] + mulmod(carry, xs[i], q)) % q;
      quo[k] = carry;
    }
    u64 denom = 1;
    for (std::size_t j = 0; j < xs.size(); ++j) {
      if (j != i) denom = mulmod(denom, (xs[i] + q - xs[j]) % q, q);
    }
    const u64 scale = mulmod(ys[i], invmod(denom, q), q);
    for (std::size_t k = 0; k < xs.size(); ++k) {
      out[k] = (out[k] + mulmod(quo[k], scale, q)) % q;
    }
  }
  while (!out.empty() && out.back() == 0) out.pop_back();
  return out;
}

TEST(ReedSolomon, EncodeIsBatchEvaluation) {
  PrimeField f(7681);
  ReedSolomonCode code(f, 3, std::size_t{10});
  Poly msg{{5, 0, 2, 1}};  // x^3 + 2x^2 + 5
  auto cw = code.encode(msg);
  const std::vector<u64> x = oracle_points(7681, 10);
  EXPECT_EQ(code.points(), x);
  ASSERT_EQ(cw.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(cw[i], horner(msg.c, x[i], 7681));
  }
}

TEST(ReedSolomon, ParameterValidation) {
  PrimeField f(17);
  EXPECT_THROW(ReedSolomonCode(f, 5, std::size_t{5}), std::invalid_argument);
  EXPECT_THROW(ReedSolomonCode(f, 1, std::size_t{17}), std::invalid_argument);
  EXPECT_NO_THROW(ReedSolomonCode(f, 1, std::size_t{16}));
  ReedSolomonCode code(f, 2, std::size_t{10});
  EXPECT_EQ(code.decoding_radius(), 3u);
  Poly too_big{{1, 1, 1, 1}};
  EXPECT_THROW(code.encode(too_big), std::invalid_argument);
  // 31 - 1 = 2 * 15: no primitive 32nd root of unity for e = 30, and
  // no fallback point set.
  EXPECT_THROW(ReedSolomonCode(PrimeField(31), 4, std::size_t{30}),
               std::invalid_argument);
  EXPECT_NO_THROW(ReedSolomonCode(PrimeField(31), 0, std::size_t{2}));
}

TEST(ReedSolomon, MinimumDistanceProperty) {
  // Two distinct codewords of a [e, d+1] RS code agree in <= d places.
  PrimeField f(97);
  ReedSolomonCode code(f, 4, std::size_t{20});
  std::mt19937_64 rng(1);
  for (int trial = 0; trial < 10; ++trial) {
    Poly m1 = random_message(4, f, rng), m2 = random_message(4, f, rng);
    if (poly_equal(m1, m2)) continue;
    auto c1 = code.encode(m1), c2 = code.encode(m2);
    int agreements = 0;
    for (std::size_t i = 0; i < 20; ++i) agreements += c1[i] == c2[i];
    EXPECT_LE(agreements, 4);
  }
}

TEST(Gao, DecodeCleanWord) {
  PrimeField f(7681);
  std::mt19937_64 rng(2);
  ReedSolomonCode code(f, 6, std::size_t{25});
  Poly msg = random_message(6, f, rng);
  auto cw = code.encode(msg);
  GaoResult res = gao_decode(code, cw);
  ASSERT_EQ(res.status, DecodeStatus::kOk);
  EXPECT_TRUE(poly_equal(res.message, msg));
  EXPECT_TRUE(res.error_locations.empty());
  EXPECT_EQ(res.corrected, cw);
}

class GaoErrors : public ::testing::TestWithParam<std::size_t> {};

TEST_P(GaoErrors, CorrectsUpToRadiusAndReportsLocations) {
  PrimeField f(find_ntt_prime(1 << 10, 10));
  std::mt19937_64 rng(GetParam() + 17);
  const std::size_t d = 10, e = 41;  // radius = 15
  ReedSolomonCode code(f, d, e);
  ASSERT_EQ(code.decoding_radius(), 15u);
  const std::size_t nerr = GetParam();
  Poly msg = random_message(d, f, rng);
  auto cw = code.encode(msg);
  auto received = cw;
  // Corrupt nerr distinct positions with guaranteed-different values.
  std::vector<std::size_t> pos(e);
  std::iota(pos.begin(), pos.end(), std::size_t{0});
  std::shuffle(pos.begin(), pos.end(), rng);
  std::vector<std::size_t> corrupted(pos.begin(), pos.begin() + nerr);
  std::sort(corrupted.begin(), corrupted.end());
  for (std::size_t p : corrupted) {
    received[p] = f.add(received[p], 1 + rng() % (f.modulus() - 1));
  }
  GaoResult res = gao_decode(code, received);
  ASSERT_EQ(res.status, DecodeStatus::kOk) << "errors=" << nerr;
  EXPECT_TRUE(poly_equal(res.message, msg));
  EXPECT_EQ(res.error_locations, corrupted);
  EXPECT_EQ(res.corrected, cw);
}

INSTANTIATE_TEST_SUITE_P(ErrorCounts, GaoErrors,
                         ::testing::Values(0, 1, 2, 5, 10, 14, 15));

TEST(Gao, FailsBeyondRadiusForRandomCorruption) {
  // With many more errors than the radius the received word is w.h.p.
  // not within radius of any codeword -> decoding failure.
  PrimeField f(find_ntt_prime(1 << 16, 16));
  std::mt19937_64 rng(3);
  const std::size_t d = 8, e = 25;  // radius = 8
  ReedSolomonCode code(f, d, e);
  Poly msg = random_message(d, f, rng);
  auto received = code.encode(msg);
  for (std::size_t i = 0; i < 20; ++i) {
    received[i] = rng() % f.modulus();
  }
  GaoResult res = gao_decode(code, received);
  // Either decode failure, or decode to something that differs from
  // msg in which case the caller's probabilistic check would catch it.
  if (res.status == DecodeStatus::kOk) {
    EXPECT_FALSE(poly_equal(res.message, msg));
  } else {
    SUCCEED();
  }
}

TEST(Gao, DecodesToNearbyCodewordNotOriginal) {
  // If the adversary replaces the word with a *valid different*
  // codeword the decoder must return that codeword (zero errors).
  PrimeField f(7681);
  std::mt19937_64 rng(4);
  ReedSolomonCode code(f, 3, std::size_t{15});
  Poly m1 = random_message(3, f, rng);
  Poly m2 = random_message(3, f, rng);
  auto cw2 = code.encode(m2);
  GaoResult res = gao_decode(code, cw2);
  ASSERT_EQ(res.status, DecodeStatus::kOk);
  EXPECT_TRUE(poly_equal(res.message, m2));
  EXPECT_FALSE(poly_equal(res.message, m1));
}

TEST(Gao, WorksAtFullLengthEqualsFieldMinusOne) {
  // e = q - 1 uses every nonzero point.
  PrimeField f(257);
  ReedSolomonCode code(f, 4, std::size_t{256});
  std::mt19937_64 rng(5);
  Poly msg = random_message(4, f, rng);
  auto received = code.encode(msg);
  received[7] = f.add(received[7], 3);
  received[21] = f.add(received[21], 9);
  GaoResult res = gao_decode(code, received);
  ASSERT_EQ(res.status, DecodeStatus::kOk);
  EXPECT_TRUE(poly_equal(res.message, msg));
  EXPECT_EQ(res.error_locations, (std::vector<std::size_t>{7, 21}));
}

TEST(Gao, RejectsWrongLength) {
  PrimeField f(17);
  ReedSolomonCode code(f, 2, std::size_t{10});
  std::vector<u64> short_word(5, 0);
  EXPECT_THROW(gao_decode(code, short_word), std::invalid_argument);
}

TEST(Gao, ZeroMessageAllZeroCodeword) {
  PrimeField f(97);
  ReedSolomonCode code(f, 5, std::size_t{20});
  std::vector<u64> zeros(20, 0);
  GaoResult res = gao_decode(code, zeros);
  ASSERT_EQ(res.status, DecodeStatus::kOk);
  EXPECT_TRUE(res.message.is_zero());
}

// ---- Boundary shapes against the oracle, on every backend ------------

struct Shape {
  std::size_t d, e;
};

class RsBoundary : public ::testing::TestWithParam<Shape> {};

TEST_P(RsBoundary, MatchesOracleAndDecodesExactlyTheRadius) {
  const auto [d, e] = GetParam();
  const u64 q = 7681;  // 2^9 | q - 1
  const PrimeField f(q);
  const std::vector<u64> x = oracle_points(q, e);
  const std::size_t n = std::bit_ceil(e);
  std::mt19937_64 rng(1000 * d + e);

  // Message with a nonzero leading coefficient, and its codeword.
  Poly msg = random_message(d, f, rng);
  msg.c.back() = 1 + rng() % (q - 1);
  std::vector<u64> clean(e);
  for (std::size_t i = 0; i < e; ++i) clean[i] = horner(msg.c, x[i], q);

  // Interpolant through an arbitrary word.
  std::vector<u64> word(e);
  for (u64& v : word) v = rng() % q;
  const std::vector<u64> interp = lagrange(x, word, q);

  // Systematic word: message symbols, then their interpolant through
  // the first d+1 points evaluated at the rest.
  std::vector<u64> symbols(d + 1);
  for (u64& v : symbols) v = rng() % q;
  const std::vector<u64> msg_poly = lagrange(
      std::vector<u64>(x.begin(), x.begin() + static_cast<long>(d + 1)),
      symbols, q);
  std::vector<u64> systematic = symbols;
  for (std::size_t k = d + 1; k < e; ++k) {
    systematic.push_back(horner(msg_poly, x[k], q));
  }

  // G0 = prod (x - x_i); for e = n it is x^n - 1.
  const std::vector<u64> g0 = product_of_roots(x, q);
  if (e == n) {
    std::vector<u64> xn_minus_one(n + 1, 0);
    xn_minus_one[0] = q - 1;
    xn_minus_one[n] = 1;
    EXPECT_EQ(g0, xn_minus_one);
  }

  // Exactly the radius of errors, at random positions.
  const std::size_t radius = (e - d - 1) / 2;
  std::vector<std::size_t> pos(e);
  std::iota(pos.begin(), pos.end(), std::size_t{0});
  std::shuffle(pos.begin(), pos.end(), rng);
  std::vector<std::size_t> corrupted(pos.begin(),
                                     pos.begin() + static_cast<long>(radius));
  std::sort(corrupted.begin(), corrupted.end());
  std::vector<u64> received = clean;
  for (std::size_t p : corrupted) {
    received[p] = (received[p] + 1 + rng() % (q - 1)) % q;
  }

  FieldCache cache;
  for (const FieldBackend b :
       {FieldBackend::kPrimeDivision, FieldBackend::kMontgomery,
        FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512}) {
    // Untabled and FieldCache-tabled transforms.
    for (const FieldOps& ops : {FieldOps(f, b), cache.ops(q, 2 * e, b)}) {
      SCOPED_TRACE(::testing::Message()
                   << "d=" << d << " e=" << e << " backend="
                   << static_cast<int>(ops.backend()) << " tables="
                   << (ops.ntt_tables() != nullptr));
      const ReedSolomonCode code(ops, d, e);
      ASSERT_EQ(code.decoding_radius(), radius);
      EXPECT_EQ(code.points(), x);
      EXPECT_EQ(code.encode(msg), clean);
      EXPECT_EQ(code.interpolate_received(word).c, interp);
      EXPECT_EQ(code.encode_systematic(symbols), systematic);
      const std::vector<u64>& g0_dom = code.vanishing_domain().c;
      EXPECT_EQ(ops.backend() == FieldBackend::kPrimeDivision
                    ? g0_dom
                    : ops.mont().from_mont_vec(g0_dom),
                g0);
      const GaoResult r = gao_decode(code, received);
      ASSERT_EQ(r.status, DecodeStatus::kOk);
      EXPECT_EQ(r.message.c, msg.c);
      EXPECT_EQ(r.error_locations, corrupted);
      EXPECT_EQ(r.corrected, clean);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, RsBoundary,
    ::testing::Values(Shape{9, 32},   // e = n: empty complement
                      Shape{6, 17},   // e = n/2 + 1
                      Shape{19, 20},  // rate 1
                      Shape{0, 12},   // d = 0
                      Shape{0, 1}),   // n = 1
    [](const ::testing::TestParamInfo<Shape>& info) {
      return "d" + std::to_string(info.param.d) + "_e" +
             std::to_string(info.param.e);
    });

// ---- One cached code shared by concurrent decoders -------------------

TEST(ReedSolomon, SharedCachedCodeDecodesConcurrently) {
  const std::size_t d = 150, e = 600;  // radius 224
  const u64 q = find_ntt_prime(1 << 12, 10);
  FieldCache fields;
  CodeCache codes;
  const FieldOps ops = fields.ops(q, 2 * e, FieldBackend::kMontgomeryAvx512);
  const std::shared_ptr<const ReedSolomonCode> code = codes.code(ops, d, e);
  ASSERT_EQ(codes.code(ops, d, e), code);

  // Clean words and words with errors inside the radius.
  std::mt19937_64 rng(31);
  std::vector<std::vector<u64>> words;
  std::vector<std::vector<u64>> messages;
  for (std::size_t w = 0; w < 8; ++w) {
    const Poly msg = random_message(d, ops.prime(), rng);
    std::vector<u64> word = code->encode(msg);
    const std::size_t errors = w % 2 == 0 ? 0 : 1 + w * 25;
    for (std::size_t i = 0; i < errors; ++i) {
      const std::size_t p = (i * 7 + w) % e;
      word[p] = (word[p] + 1 + rng() % (q - 1)) % q;
    }
    words.push_back(std::move(word));
    messages.emplace_back(msg.c.begin(), msg.c.end());
  }
  std::vector<GaoResult> expected;
  std::vector<std::vector<u64>> expected_sys;
  for (std::size_t w = 0; w < words.size(); ++w) {
    expected.push_back(gao_decode(*code, words[w]));
    ASSERT_EQ(expected.back().status, DecodeStatus::kOk);
    expected_sys.push_back(code->encode_systematic(
        std::span<const u64>(words[w].data(), d + 1)));
  }

  std::atomic<int> mismatches{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < 4; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t round = 0; round < 4; ++round) {
        for (std::size_t k = 0; k < words.size(); ++k) {
          const std::size_t w = (k + t) % words.size();
          const GaoResult r = gao_decode(*code, words[w]);
          const GaoResult& x = expected[w];
          const bool same = r.status == x.status &&
                            r.message.c == x.message.c &&
                            r.error_locations == x.error_locations &&
                            r.corrected == x.corrected &&
                            r.quotient_steps == x.quotient_steps &&
                            r.hgcd_calls == x.hgcd_calls;
          const bool sys_same =
              code->encode_systematic(std::span<const u64>(
                  words[w].data(), d + 1)) == expected_sys[w];
          if (!same || !sys_same) mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : pool) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

}  // namespace
}  // namespace camelot
