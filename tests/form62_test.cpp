#include "count/form62.hpp"

#include <gtest/gtest.h>

#include <map>
#include <random>

#include "count/clique_camelot.hpp"
#include "count/form62_block.hpp"
#include "field/primes.hpp"
#include "poly/lagrange.hpp"

namespace camelot {
namespace {

Form62Input random_input(std::size_t n, const PrimeField& f, u64 seed,
                         bool binary = false) {
  std::mt19937_64 rng(seed);
  Form62Input in;
  for (Matrix& m : in.mats) {
    m = Matrix(n, n);
    for (u64& v : m.data()) {
      v = binary ? rng() % 2 : rng() % f.modulus();
    }
  }
  return in;
}

TEST(Form62, PairIndexBijective) {
  std::vector<bool> seen(15, false);
  for (int s = 1; s <= 5; ++s) {
    for (int t = s + 1; t <= 6; ++t) {
      std::size_t idx = form62_pair_index(s, t);
      ASSERT_LT(idx, 15u);
      EXPECT_FALSE(seen[idx]) << s << "," << t;
      seen[idx] = true;
    }
  }
  EXPECT_EQ(form62_pair_index(1, 2), 0u);
  EXPECT_EQ(form62_pair_index(5, 6), 14u);
  EXPECT_THROW(form62_pair_index(2, 2), std::invalid_argument);
  EXPECT_THROW(form62_pair_index(0, 3), std::invalid_argument);
}

TEST(Form62, DirectOnAllOnesCountsTuples) {
  // With every matrix all-ones, X = N^6.
  PrimeField f(1'000'003);
  const std::size_t n = 3;
  Form62Input in;
  for (Matrix& m : in.mats) {
    m = Matrix(n, n);
    for (u64& v : m.data()) v = 1;
  }
  EXPECT_EQ(form62_direct(in, f), ipow(3, 6));
}

class Form62Agreement : public ::testing::TestWithParam<std::size_t> {};

TEST_P(Form62Agreement, NesetrilPoljakMatchesDirect) {
  PrimeField f(find_ntt_prime(1 << 20, 6));
  Form62Input in = random_input(GetParam(), f, GetParam() * 3 + 1);
  EXPECT_EQ(form62_nesetril_poljak(in, f), form62_direct(in, f));
}

TEST_P(Form62Agreement, NewCircuitStrassenMatchesDirect) {
  PrimeField f(find_ntt_prime(1 << 20, 6));
  const std::size_t n = GetParam();
  TrilinearDecomposition dec = strassen_decomposition();
  const unsigned t = kronecker_exponent(2, n);
  Form62Input in = random_input(n, f, GetParam() * 7 + 2);
  const u64 expect = form62_direct(in, f);
  Form62Input padded = form62_padded(in, ipow(2, t));
  EXPECT_EQ(form62_new_circuit(padded, dec, t, f), expect) << "n=" << n;
}

TEST_P(Form62Agreement, NewCircuitNaiveDecompositionMatchesDirect) {
  PrimeField f(find_ntt_prime(1 << 20, 6));
  const std::size_t n = GetParam();
  TrilinearDecomposition dec = naive_decomposition(2);
  const unsigned t = kronecker_exponent(2, n);
  Form62Input in = random_input(n, f, GetParam() * 11 + 3);
  const u64 expect = form62_direct(in, f);
  Form62Input padded = form62_padded(in, ipow(2, t));
  EXPECT_EQ(form62_new_circuit(padded, dec, t, f), expect) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, Form62Agreement,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8));

TEST(Form62, PaddingDoesNotChangeValue) {
  // Zero rows/columns contribute nothing to the form.
  PrimeField f(7681);
  Form62Input in = random_input(3, f, 42);
  const u64 expect = form62_direct(in, f);
  Form62Input padded = form62_padded(in, 8);
  EXPECT_EQ(form62_direct(padded, f), expect);
  EXPECT_EQ(form62_nesetril_poljak(padded, f), expect);
}

TEST(Form62, RangeSplitsSumToWhole) {
  // The per-r terms are the parallel work units of Theorem 2: any
  // partition of [0, R) sums to the full value.
  PrimeField f(7681);
  TrilinearDecomposition dec = strassen_decomposition();
  const unsigned t = 2;  // N = 4, R = 49
  Form62Input in = random_input(4, f, 9);
  const u64 whole = form62_new_circuit(in, dec, t, f);
  u64 pieces = 0;
  for (u64 r = 0; r < 49; r += 10) {
    pieces = f.add(pieces,
                   form62_new_circuit_range(in, dec, t, r,
                                            std::min<u64>(r + 10, 49), f));
  }
  EXPECT_EQ(pieces, whole);
}

TEST(Form62, KroneckerExponent) {
  EXPECT_EQ(kronecker_exponent(2, 1), 0u);
  EXPECT_EQ(kronecker_exponent(2, 2), 1u);
  EXPECT_EQ(kronecker_exponent(2, 3), 2u);
  EXPECT_EQ(kronecker_exponent(2, 8), 3u);
  EXPECT_EQ(kronecker_exponent(2, 9), 4u);
  EXPECT_EQ(kronecker_exponent(3, 10), 3u);
}

TEST(Form62, NewCircuitRejectsUnpaddedInput) {
  PrimeField f(97);
  TrilinearDecomposition dec = strassen_decomposition();
  Form62Input in = random_input(3, f, 1);
  EXPECT_THROW(form62_new_circuit(in, dec, 2, f), std::invalid_argument);
}

TEST(Form62, RaggedInputRejectedAtConstruction) {
  PrimeField f(97);
  const BigInt bound = BigInt::from_u64(1);
  // mats[0] is already n0^t-sized, so nothing would be padded and the
  // odd matrix would only surface inside an evaluator.
  Form62Input ragged = random_input(4, f, 3);
  ragged.mats[7] = Matrix(3, 3);
  EXPECT_THROW(Form62Problem(ragged, strassen_decomposition(), bound),
               std::invalid_argument);
  EXPECT_THROW(Form62BlockCircuit(ragged, f), std::invalid_argument);
  Form62Input non_square = random_input(4, f, 4);
  non_square.mats[14] = Matrix(4, 3);
  EXPECT_THROW(Form62Problem(non_square, strassen_decomposition(), bound),
               std::invalid_argument);
  EXPECT_THROW(Form62Problem(Form62Input{}, strassen_decomposition(), bound),
               std::invalid_argument);
  EXPECT_FALSE(Form62Input{}.well_formed());
  // Square and uniform but not n0^t-sized is fine: it gets padded.
  EXPECT_NO_THROW(
      Form62Problem(random_input(3, f, 5), strassen_decomposition(), bound));
}

// Per-point oracle for the proof polynomial, independent of Yates and
// of the block kernels: alpha_de(x) = sum_r alpha_de(r) L_r(x) from
// alpha_power and the one-point Lagrange basis (likewise beta,
// gamma), then the reference circuit form62_circuit_term.
u64 proof_oracle(const Form62Input& padded, const TrilinearDecomposition& dec,
                 unsigned t, u64 x, const PrimeField& f) {
  const u64 n = padded.size();
  const u64 rank = ipow(dec.rank, t);
  const std::vector<u64> lambda = lagrange_basis_consecutive(1, rank, x, f);
  Matrix am(n, n), bm(n, n), gm(n, n);
  for (u64 d = 0; d < n; ++d) {
    for (u64 e = 0; e < n; ++e) {
      for (u64 r = 0; r < rank; ++r) {
        am.at(d, e) = f.add(am.at(d, e),
                            f.mul(dec.alpha_power(d, e, r, t, f), lambda[r]));
        bm.at(d, e) = f.add(bm.at(d, e),
                            f.mul(dec.beta_power(d, e, r, t, f), lambda[r]));
        gm.at(d, e) = f.add(gm.at(d, e),
                            f.mul(dec.gamma_power(d, e, r, t, f), lambda[r]));
      }
    }
  }
  return form62_circuit_term(padded, am, bm, gm, f);
}

TEST(Form62Block, EvaluatePointsMatchesPerPointOracle) {
  const std::size_t b = kPointBlock;
  // N = 3: padded to 4 (t = 2) under the 2x2 decompositions, unpadded
  // (t = 1, an odd fold in the circuit) under the naive 3x3 one.
  for (const TrilinearDecomposition& dec :
       {strassen_decomposition(), naive_decomposition(2),
        naive_decomposition(3)}) {
    const unsigned t = kronecker_exponent(dec.n0, 3);
    const u64 rank = ipow(dec.rank, t);
    // A lane prime and one at or above 2^31, which the lanes refuse,
    // so every backend request runs the scalar fallback.
    for (const u64 q :
         {find_ntt_prime(1 << 20, 6), next_prime(u64{1} << 31)}) {
      const PrimeField f(q);
      const bool binary = dec.rank == 8;  // 0/1 masks on the naive 2x2 run
      const Form62Input in = random_input(3, f, q % 1000 + dec.rank, binary);
      const Form62Input padded = form62_padded(in, ipow(dec.n0, t));
      const Form62Problem problem(in, dec, BigInt::from_u64(1));
      std::map<u64, u64> want;
      const auto oracle = [&](u64 x) {
        auto it = want.find(x);
        if (it == want.end()) {
          it = want.emplace(x, proof_oracle(padded, dec, t, x, f)).first;
        }
        return it->second;
      };
      // The Lagrange nodes 1 and R, points past R, 0 and q - 1, then
      // random points; rotated per chunk so they land at different
      // offsets within a block.
      const std::vector<u64> special = {1, rank, rank + 1, 0, q - 1, 2 * rank};
      std::mt19937_64 rng(q);
      for (const FieldBackend backend :
           {FieldBackend::kMontgomery, FieldBackend::kPrimeDivision,
            FieldBackend::kMontgomeryAvx2, FieldBackend::kMontgomeryAvx512}) {
        const FieldOps ops(f, backend);
        if ((q >> 31) != 0) EXPECT_FALSE(ops.simd());
        auto ev = problem.make_evaluator(ops);
        for (const std::size_t chunk :
             {std::size_t{1}, b - 1, b, b + 1, 2 * b + 3}) {
          std::vector<u64> xs;
          for (std::size_t i = 0; i < chunk; ++i) {
            xs.push_back(i < special.size()
                             ? special[(i + chunk) % special.size()]
                             : rng() % q);
          }
          const std::vector<u64> got = ev->evaluate_points(xs);
          ASSERT_EQ(got.size(), chunk);
          for (std::size_t i = 0; i < chunk; ++i) {
            EXPECT_EQ(got[i], oracle(xs[i]))
                << "R=" << rank << " q=" << q
                << " backend=" << static_cast<int>(backend)
                << " chunk=" << chunk << " x=" << xs[i];
          }
        }
        for (const u64 x : special) {
          const u64 one_point = ev->evaluate_points(std::vector<u64>{x})[0];
          EXPECT_EQ(ev->eval(x), one_point);
          EXPECT_EQ(one_point, oracle(x));
        }
        EXPECT_TRUE(ev->evaluate_points({}).empty());
      }
    }
  }
}

}  // namespace
}  // namespace camelot
