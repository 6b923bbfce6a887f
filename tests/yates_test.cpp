#include "yates/poly_ext.hpp"
#include "yates/split_sparse.hpp"
#include "yates/yates.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <span>

#include "field/backend_dispatch.hpp"
#include "field/primes.hpp"
#include "linalg/tensor.hpp"
#include "poly/lagrange.hpp"

namespace camelot {
namespace {

std::vector<u64> random_vector(std::size_t n, const PrimeField& f,
                               std::mt19937_64& rng) {
  std::vector<u64> v(n);
  for (u64& x : v) x = rng() % f.modulus();
  return v;
}

std::vector<u64> random_base(std::size_t t, std::size_t s,
                             const PrimeField& f, std::mt19937_64& rng) {
  std::vector<u64> b(t * s);
  for (u64& x : b) x = rng() % f.modulus();
  return b;
}

TEST(Yates, IdentityBase) {
  PrimeField f(97);
  std::mt19937_64 rng(1);
  // A = I (2x2): the transform is the identity for any k.
  std::vector<u64> base = {1, 0, 0, 1};
  auto x = random_vector(8, f, rng);
  auto y = yates_apply(f, base, 2, 2, x, 3);
  EXPECT_EQ(y, x);
}

TEST(Yates, SingleLevelIsMatrixVector) {
  PrimeField f(101);
  std::mt19937_64 rng(2);
  auto base = random_base(3, 2, f, rng);
  auto x = random_vector(2, f, rng);
  auto y = yates_apply(f, base, 3, 2, x, 1);
  ASSERT_EQ(y.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(y[i], f.add(f.mul(base[i * 2], x[0]), f.mul(base[i * 2 + 1], x[1])));
  }
}

TEST(Yates, ZeroLevelsIsIdentity) {
  PrimeField f(97);
  std::vector<u64> base = {1, 2, 3, 4};
  std::vector<u64> x = {42};
  auto y = yates_apply(f, base, 2, 2, x, 0);
  EXPECT_EQ(y, x);
}

class YatesShapes
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t,
                                                 unsigned>> {};

TEST_P(YatesShapes, FastMatchesNaive) {
  auto [t, s, k] = GetParam();
  PrimeField f(7681);
  std::mt19937_64 rng(t * 100 + s * 10 + k);
  auto base = random_base(t, s, f, rng);
  auto x = random_vector(ipow(s, k), f, rng);
  auto fast = yates_apply(f, base, t, s, x, k);
  auto naive = yates_apply_naive(f, base, t, s, x, k);
  EXPECT_EQ(fast, naive);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, YatesShapes,
    ::testing::Values(std::tuple<std::size_t, std::size_t, unsigned>{2, 2, 1},
                      std::tuple<std::size_t, std::size_t, unsigned>{2, 2, 4},
                      std::tuple<std::size_t, std::size_t, unsigned>{3, 2, 3},
                      std::tuple<std::size_t, std::size_t, unsigned>{4, 3, 2},
                      std::tuple<std::size_t, std::size_t, unsigned>{7, 4, 2},
                      std::tuple<std::size_t, std::size_t, unsigned>{2, 1, 5},
                      std::tuple<std::size_t, std::size_t, unsigned>{5, 5,
                                                                     2}));

// Column c of a batched transform is the batch = 1 transform of
// column c, on the reference field and on every Montgomery backend.
TEST_P(YatesShapes, BatchedMatchesPerColumnAndNaive) {
  auto [t, s, k] = GetParam();
  const PrimeField f(7681);
  std::mt19937_64 rng(t * 1000 + s * 10 + k);
  const auto base = random_base(t, s, f, rng);
  const std::size_t rows_in = ipow(s, k), rows_out = ipow(t, k);
  for (const std::size_t batch : {2u, 3u, 16u}) {
    const auto x = random_vector(rows_in * batch, f, rng);
    const auto column = [&](const std::vector<u64>& v, std::size_t rows,
                            std::size_t c) {
      std::vector<u64> out(rows);
      for (std::size_t j = 0; j < rows; ++j) out[j] = v[j * batch + c];
      return out;
    };
    const auto fast = yates_apply(f, base, t, s, x, k, batch);
    ASSERT_EQ(fast.size(), rows_out * batch);
    for (std::size_t c = 0; c < batch; ++c) {
      const auto xc = column(x, rows_in, c);
      EXPECT_EQ(column(fast, rows_out, c), yates_apply(f, base, t, s, xc, k));
      EXPECT_EQ(column(fast, rows_out, c),
                yates_apply_naive(f, base, t, s, xc, k));
    }
    for (const FieldBackend backend :
         {FieldBackend::kMontgomery, FieldBackend::kMontgomeryAvx2,
          FieldBackend::kMontgomeryAvx512}) {
      const FieldOps ops(f, backend);
      const MontgomeryField& m = ops.mont();
      const auto base_m = m.to_mont_vec(base);
      const auto x_m = m.to_mont_vec(x);
      with_lane_field(ops.backend(), m, [&](const auto& lf) {
        const auto got = yates_apply(lf, base_m, t, s, x_m, k, batch);
        EXPECT_EQ(m.from_mont_vec(got), fast)
            << "backend=" << static_cast<int>(ops.backend());
        for (std::size_t c = 0; c < batch; ++c) {
          EXPECT_EQ(column(got, rows_out, c),
                    yates_apply(lf, base_m, t, s, column(x_m, rows_in, c), k));
        }
      });
    }
  }
  EXPECT_THROW(yates_apply(f, base, t, s, random_vector(rows_in, f, rng), k, 2),
               std::invalid_argument);
}

// Trilinear tables are mostly 0 and +-1, which the lane kernels take
// as adds and subtracts rather than multiplies. Tables drawn from
// {0, 1, q-1, random}, and Strassen's own (4 x 7 as the clique
// evaluator runs them, 7 x 4 transposed as the triangle evaluator
// does), against the defining sum on every Montgomery backend, at
// batch widths around the AVX2 and AVX-512 vector and pair lengths.
TEST(Yates, SignedWeightsMatchNaiveOnEveryBackend) {
  const PrimeField f(2147352577);
  const u64 q = f.modulus();
  std::mt19937_64 rng(36);
  const auto signed_base = [&](std::size_t t, std::size_t s) {
    std::vector<u64> b(t * s);
    for (u64& x : b) {
      const u64 pick = rng() % 4;
      x = pick == 0 ? 0 : pick == 1 ? 1 : pick == 2 ? q - 1 : rng() % q;
    }
    return b;
  };
  const auto transposed = [](const std::vector<u64>& b, std::size_t t,
                             std::size_t s) {
    std::vector<u64> out(s * t);
    for (std::size_t i = 0; i < t; ++i) {
      for (std::size_t j = 0; j < s; ++j) out[j * t + i] = b[i * s + j];
    }
    return out;
  };
  struct Case {
    std::vector<u64> base;
    std::size_t t, s;
    unsigned k;
  };
  std::vector<Case> cases = {{signed_base(4, 7), 4, 7, 3},
                             {signed_base(7, 4), 7, 4, 3},
                             {signed_base(3, 5), 3, 5, 2}};
  const TrilinearDecomposition strassen = strassen_decomposition();
  for (const std::vector<u64>& table :
       {strassen.alpha_mod(f), strassen.beta_mod(f), strassen.gamma_mod(f)}) {
    cases.push_back({table, 4, 7, 4});
    cases.push_back({transposed(table, 4, 7), 7, 4, 3});
  }
  constexpr std::size_t kMaxBatch = 17;
  for (const Case& c : cases) {
    const std::size_t rows_in = ipow(c.s, c.k), rows_out = ipow(c.t, c.k);
    // kMaxBatch random columns and their defining sums; a batch of
    // width w takes the first w.
    std::vector<std::vector<u64>> xcols, ycols;
    for (std::size_t col = 0; col < kMaxBatch; ++col) {
      xcols.push_back(random_vector(rows_in, f, rng));
      ycols.push_back(yates_apply_naive(f, c.base, c.t, c.s, xcols[col], c.k));
    }
    for (const std::size_t batch : {1u, 7u, 8u, 9u, 16u, 17u}) {
      std::vector<u64> x(rows_in * batch), want(rows_out * batch);
      for (std::size_t col = 0; col < batch; ++col) {
        for (std::size_t j = 0; j < rows_in; ++j) {
          x[j * batch + col] = xcols[col][j];
        }
        for (std::size_t i = 0; i < rows_out; ++i) {
          want[i * batch + col] = ycols[col][i];
        }
      }
      for (const FieldBackend backend :
           {FieldBackend::kMontgomery, FieldBackend::kMontgomeryAvx2,
            FieldBackend::kMontgomeryAvx512}) {
        const FieldOps ops(f, backend);
        const MontgomeryField& m = ops.mont();
        with_lane_field(ops.backend(), m, [&](const auto& lf) {
          const auto got = yates_apply(lf, m.to_mont_vec(c.base), c.t, c.s,
                                       m.to_mont_vec(x), c.k, batch);
          EXPECT_EQ(m.from_mont_vec(got), want)
              << c.t << "x" << c.s << " k=" << c.k << " batch=" << batch
              << " backend=" << static_cast<int>(ops.backend());
        });
      }
    }
  }
}

TEST(Yates, SubsetZetaTransform) {
  // Base [[1,0],[1,1]] computes the subset-sum (zeta) transform; check
  // on a known example over k=3 ground elements.
  PrimeField f(1'000'003);
  std::vector<u64> base = {1, 0, 1, 1};
  // x[S] = bitmask value; digits MSB-first means bit 0 of our index is
  // the LAST digit, which is fine as long as we are consistent.
  std::vector<u64> x = {1, 2, 4, 8, 16, 32, 64, 128};
  auto y = yates_apply(f, base, 2, 2, x, 3);
  for (u64 s = 0; s < 8; ++s) {
    u64 expect = 0;
    for (u64 sub = 0; sub < 8; ++sub) {
      if ((sub & s) == sub) expect += x[sub];
    }
    EXPECT_EQ(y[s], expect) << "S=" << s;
  }
}

TEST(Yates, RejectsBadShapes) {
  PrimeField f(17);
  std::vector<u64> base = {1, 2, 3};  // not t*s
  std::vector<u64> x = {1, 2};
  EXPECT_THROW(yates_apply(f, base, 2, 2, x, 1), std::invalid_argument);
  std::vector<u64> base2 = {1, 2, 3, 4};
  std::vector<u64> x2 = {1, 2, 3};  // not s^k
  EXPECT_THROW(yates_apply(f, base2, 2, 2, x2, 1), std::invalid_argument);
}

std::vector<SparseEntry> sparsify(const std::vector<u64>& x) {
  std::vector<SparseEntry> d;
  for (u64 i = 0; i < x.size(); ++i) {
    if (x[i] != 0) d.push_back({i, x[i]});
  }
  return d;
}

class SplitSparseEll : public ::testing::TestWithParam<int> {};

TEST_P(SplitSparseEll, PartsAssembleToFullTransform) {
  PrimeField f(7681);
  std::mt19937_64 rng(GetParam() + 50);
  const std::size_t t = 3, s = 2;
  const unsigned k = 4;
  auto base = random_base(t, s, f, rng);
  // Sparse input: ~1/4 of entries nonzero.
  std::vector<u64> x(ipow(s, k), 0);
  for (u64 i = 0; i < x.size(); ++i) {
    if (rng() % 4 == 0) x[i] = 1 + rng() % (f.modulus() - 1);
  }
  if (sparsify(x).empty()) x[3] = 7;
  SplitSparseYates ss(f, base, t, s, k, sparsify(x), GetParam());
  auto full = yates_apply(f, base, t, s, x, k);
  ASSERT_EQ(ss.num_parts() * ss.part_size(), full.size());
  for (u64 outer = 0; outer < ss.num_parts(); ++outer) {
    auto part = ss.part(outer);
    ASSERT_EQ(part.size(), ss.part_size());
    for (u64 inner = 0; inner < ss.part_size(); ++inner) {
      EXPECT_EQ(part[inner], full[inner * ss.num_parts() + outer])
          << "outer=" << outer << " inner=" << inner
          << " ell=" << ss.ell();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ells, SplitSparseEll,
                         ::testing::Values(-1, 0, 1, 2, 3, 4));

TEST(SplitSparse, DefaultEllMatchesPaperChoice) {
  PrimeField f(97);
  std::vector<u64> base = {1, 0, 1, 1, 0, 1};  // t=3, s=2
  // |D| = 5 -> ell = ceil(log_3 5) = 2.
  std::vector<SparseEntry> d = {{0, 1}, {1, 1}, {2, 1}, {3, 1}, {4, 1}};
  SplitSparseYates ss(f, base, 3, 2, 5, d);
  EXPECT_EQ(ss.ell(), 2u);
  EXPECT_EQ(ss.num_parts(), ipow(3, 3));
  EXPECT_EQ(ss.part_size(), 9u);
}

TEST(SplitSparse, RequiresTGeqS) {
  PrimeField f(17);
  std::vector<u64> base = {1, 2, 3, 4, 5, 6};  // 2x3
  std::vector<SparseEntry> d = {{0, 1}};
  EXPECT_THROW(SplitSparseYates(f, base, 2, 3, 2, d), std::invalid_argument);
}

TEST(PolyExt, MatchesSplitSparseOnOuterDomain) {
  PrimeField f(find_ntt_prime(1 << 10, 6));
  std::mt19937_64 rng(60);
  const std::size_t t = 3, s = 3;
  const unsigned k = 3;
  auto base = random_base(t, s, f, rng);
  std::vector<u64> x(ipow(s, k), 0);
  for (u64 i = 0; i < x.size(); ++i) {
    if (rng() % 3 == 0) x[i] = 1 + rng() % (f.modulus() - 1);
  }
  x[0] = 5;
  auto d = sparsify(x);
  for (int ell : {0, 1, 2}) {
    SplitSparseYates ss(f, base, t, s, k, d, ell);
    YatesPolynomialExtension pe(f, base, t, s, k, d, ell);
    ASSERT_EQ(pe.num_outer(), ss.num_parts());
    for (u64 outer = 0; outer < ss.num_parts(); ++outer) {
      // The polynomial extension at z0 = outer+1 equals the part.
      EXPECT_EQ(pe.evaluate(outer + 1), ss.part(outer))
          << "ell=" << ell << " outer=" << outer;
    }
  }
}

TEST(PolyExt, BlockMatchesPerPoint) {
  // Every column of a block equals the split/sparse oracle of
  // MatchesSplitSparseOnOuterDomain: the part itself on the outer
  // domain, the parts' Lagrange interpolant off it.
  PrimeField f(find_ntt_prime(1 << 10, 6));
  std::mt19937_64 rng(62);
  const std::size_t t = 3, s = 3;
  const unsigned k = 3;
  auto base = random_base(t, s, f, rng);
  std::vector<u64> x(ipow(s, k), 0);
  for (u64 i = 0; i < x.size(); ++i) {
    if (rng() % 3 == 0) x[i] = 1 + rng() % (f.modulus() - 1);
  }
  x[0] = 5;
  x[1] = 1;  // a unit entry takes the scatter's add path
  auto d = sparsify(x);
  for (int ell : {0, 1, 2}) {
    SplitSparseYates ss(f, base, t, s, k, d, ell);
    YatesPolynomialExtension pe(f, base, t, s, k, d, ell);
    const u64 outer = pe.num_outer();
    std::vector<std::vector<u64>> parts(outer);
    for (u64 o = 0; o < outer; ++o) parts[o] = ss.part(o);
    const auto expected = [&](u64 z) {
      const std::vector<u64> l = lagrange_basis_consecutive(1, outer, z, f);
      std::vector<u64> u(pe.part_size(), 0);
      for (u64 o = 0; o < outer; ++o) {
        for (u64 i = 0; i < u.size(); ++i) {
          u[i] = f.add(u[i], f.mul(parts[o][i], l[o]));
        }
      }
      return u;
    };
    // The outer domain backwards, then points off it.
    std::vector<u64> xs;
    for (u64 z = outer; z >= 1; --z) xs.push_back(z);
    for (u64 z : {u64{0}, outer + 1, f.modulus() - 1}) xs.push_back(z);
    for (std::size_t width : {std::size_t{1}, std::size_t{5}, xs.size()}) {
      for (std::size_t lo = 0; lo < xs.size(); lo += width) {
        const std::span<const u64> block(
            xs.data() + lo, std::min(width, xs.size() - lo));
        const std::size_t w = block.size();
        std::vector<u64> got =
            pe.evaluate_block_mont(pe.lagrange().basis_mont_block(block), w);
        ASSERT_EQ(got.size(), pe.part_size() * w);
        pe.mont().from_mont_inplace(got);
        for (std::size_t c = 0; c < w; ++c) {
          const std::vector<u64> want = expected(block[c]);
          for (u64 i = 0; i < want.size(); ++i) {
            EXPECT_EQ(got[i * w + c], want[i])
                << "ell=" << ell << " width=" << width << " z=" << block[c]
                << " inner=" << i;
          }
          if (block[c] >= 1 && block[c] <= outer) {
            EXPECT_EQ(want, ss.part(block[c] - 1));
          }
        }
      }
    }
  }
}

TEST(PolyExt, RejectsOutOfRangeEntry) {
  // An index >= s^k has no digit pattern in [s^k]: its scatter row
  // index / s^{k-ell} lies past the end of x^(ell). Construction must
  // refuse it, as SplitSparseYates does.
  PrimeField f(97);
  const std::vector<u64> base = {1, 1, 2, 3};  // t = s = 2
  const unsigned k = 3;
  for (u64 index : {ipow(2, k), ~u64{0}}) {
    const std::vector<SparseEntry> d = {{0, 1}, {index, 4}};
    EXPECT_THROW(
        {
          YatesPolynomialExtension pe(f, base, 2, 2, k, d, 1);
          pe.evaluate(5);
        },
        std::invalid_argument)
        << "index=" << index;
  }
}

TEST(PolyExt, EntriesAreLowDegreePolynomials) {
  // Each part entry, as a function of z0, must be a polynomial of
  // degree <= t^{k-ell}-1: check by interpolating from t^{k-ell}
  // points and predicting a fresh point.
  PrimeField f(find_ntt_prime(1 << 10, 6));
  std::mt19937_64 rng(61);
  const std::size_t t = 2, s = 2;
  const unsigned k = 4;
  std::vector<u64> base = {1, 1, 2, 3};
  std::vector<SparseEntry> d = {{1, 4}, {7, 9}, {11, 2}};
  YatesPolynomialExtension pe(f, base, t, s, k, d, 2);
  const u64 m = pe.num_outer();  // 4
  ASSERT_EQ(pe.poly_degree_bound(), m - 1);
  // Gather values at z0 = 1..m for every entry.
  std::vector<std::vector<u64>> vals(m);
  for (u64 z0 = 1; z0 <= m; ++z0) vals[z0 - 1] = pe.evaluate(z0);
  for (u64 probe : {m + 5, m + 100, u64{500}}) {
    auto got = pe.evaluate(probe);
    for (u64 inner = 0; inner < pe.part_size(); ++inner) {
      std::vector<u64> series(m);
      for (u64 i = 0; i < m; ++i) series[i] = vals[i][inner];
      u64 predicted = lagrange_eval_consecutive(1, series, probe, f);
      EXPECT_EQ(got[inner], predicted) << "inner=" << inner;
    }
  }
}

TEST(PolyExt, FieldTooSmallRejected) {
  PrimeField f(5);
  std::vector<u64> base = {1, 1, 1, 2};
  std::vector<SparseEntry> d = {{0, 1}};
  // num_outer = 2^3 = 8 >= q = 5.
  EXPECT_THROW(YatesPolynomialExtension(f, base, 2, 2, 3, d, 0),
               std::invalid_argument);
}

}  // namespace
}  // namespace camelot
