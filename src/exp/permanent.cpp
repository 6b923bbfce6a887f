#include "exp/permanent.hpp"

#include <bit>
#include <random>
#include <stdexcept>

#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"

namespace camelot {

IntMatrix IntMatrix::random(std::size_t n, u64 max_entry, u64 seed) {
  std::mt19937_64 rng(seed);
  IntMatrix m;
  m.n = n;
  m.a.resize(n * n);
  for (u64& v : m.a) v = rng() % (max_entry + 1);
  return m;
}

PermanentProblem::PermanentProblem(IntMatrix m) : m_(std::move(m)) {
  if (m_.n == 0 || m_.n % 2 != 0 || m_.n > 30) {
    throw std::invalid_argument("PermanentProblem: need even n <= 30");
  }
  for (u64 v : m_.a) max_entry_ = std::max(max_entry_, v);
  if (max_entry_ >= (u64{1} << 20)) {
    throw std::invalid_argument("PermanentProblem: entries must be < 2^20");
  }
}

ProofSpec PermanentProblem::spec() const {
  const std::size_t n = m_.n;
  const u64 big_m = u64{1} << (n / 2);
  ProofSpec s;
  // deg Q <= 3n/2 (n linear row factors + n/2 sign factors), each
  // D_j of degree M-1.
  s.degree_bound = (3 * n / 2) * (big_m - 1);
  s.min_modulus = big_m + 1;  // recovery reads P(0..M-1)
  s.answer_count = 1;
  // |sum_S prod_i row_i| <= 2^n (n * amax)^n.
  s.answer_bound =
      BigInt::power_of_two(static_cast<unsigned>(n)) *
      BigInt::from_u64(n * std::max<u64>(max_entry_, 1)).pow_u32(
          static_cast<u32>(n));
  return s;
}

namespace {

class PermanentEvaluator : public Evaluator {
 public:
  PermanentEvaluator(const FieldOps& f, const IntMatrix& m)
      : Evaluator(f), m_(m) {}

  u64 eval(u64 x0) override {
    const std::size_t n = m_.n;
    const std::size_t h = n / 2;
    const std::size_t big_m = std::size_t{1} << h;
    // D_j(x0) over the nodes 0..M-1 (eq. (43)): D_j(i) = bit j of i.
    const std::vector<u64> basis =
        lagrange_basis_consecutive(0, big_m, x0, field_);
    std::vector<u64> d(h, 0);
    for (std::size_t i = 0; i < big_m; ++i) {
      if (basis[i] == 0) continue;
      for (std::size_t j = 0; j < h; ++j) {
        if ((i >> j) & 1) d[j] = field_.add(d[j], basis[i]);
      }
    }
    // Fixed part of each row: sum_{j < h} a_ij D_j(x0); sign prefix
    // (-1)^n prod_{j < h} (1 - 2 D_j).
    std::vector<u64> row_fixed(n, 0);
    for (std::size_t i = 0; i < n; ++i) {
      u64 acc = 0;
      for (std::size_t j = 0; j < h; ++j) {
        acc = field_.add(acc, field_.mul(field_.reduce(m_.at(i, j)), d[j]));
      }
      row_fixed[i] = acc;
    }
    u64 prefix = n % 2 == 0 ? field_.one() : field_.neg(field_.one());
    for (std::size_t j = 0; j < h; ++j) {
      prefix = field_.mul(prefix,
                          field_.sub(1, field_.mul(2 % field_.modulus(),
                                                   d[j])));
    }
    // Explicit sum over the second half, Gray-code order so each step
    // flips one variable and updates the row sums in O(n).
    std::vector<u64> row_var(n, 0);
    u64 total = 0;
    u64 prev_gray = 0;
    for (std::size_t step = 0; step < big_m; ++step) {
      const u64 gray = step ^ (step >> 1);
      if (step > 0) {
        const u64 flipped = gray ^ prev_gray;  // single bit
        const unsigned j = std::countr_zero(flipped);
        const bool now_on = (gray >> j) & 1;
        for (std::size_t i = 0; i < n; ++i) {
          const u64 a = field_.reduce(m_.at(i, h + j));
          row_var[i] = now_on ? field_.add(row_var[i], a)
                              : field_.sub(row_var[i], a);
        }
      }
      prev_gray = gray;
      u64 term = prefix;
      if (std::popcount(gray) % 2 == 1) term = field_.neg(term);
      for (std::size_t i = 0; i < n && term != 0; ++i) {
        term = field_.mul(term, field_.add(row_fixed[i], row_var[i]));
      }
      total = field_.add(total, term);
    }
    return total;
  }

 private:
  const IntMatrix& m_;
};

}  // namespace

std::unique_ptr<Evaluator> PermanentProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<PermanentEvaluator>(f, m_);
}

std::vector<u64> PermanentProblem::recover(const Poly& proof,
                                           const FieldOps& f) const {
  const u64 big_m = u64{1} << (m_.n / 2);
  return {range_sum(proof, 0, big_m - 1, f)};
}

BigInt permanent_ryser(const IntMatrix& m) {
  const std::size_t n = m.n;
  if (n == 0) return BigInt(1);
  if (n > 24) throw std::invalid_argument("permanent_ryser: n > 24");
  // Gray-code over nonempty column subsets.
  std::vector<BigInt> row_sums(n, BigInt(0));
  BigInt total(0);
  u64 prev_gray = 0;
  for (u64 step = 1; step < (u64{1} << n); ++step) {
    const u64 gray = step ^ (step >> 1);
    const u64 flipped = gray ^ prev_gray;
    const unsigned j = std::countr_zero(flipped);
    const bool now_on = (gray >> j) & 1;
    for (std::size_t i = 0; i < n; ++i) {
      const BigInt a = BigInt::from_u64(m.at(i, j));
      row_sums[i] = now_on ? row_sums[i] + a : row_sums[i] - a;
    }
    prev_gray = gray;
    BigInt prod(1);
    for (std::size_t i = 0; i < n; ++i) prod = prod * row_sums[i];
    const bool neg = (n - std::popcount(gray)) % 2 == 1;
    total = neg ? total - prod : total + prod;
  }
  return total;
}

namespace {

BigInt expansion_rec(const IntMatrix& m, std::size_t row, u64 used) {
  if (row == m.n) return BigInt(1);
  BigInt total(0);
  for (std::size_t j = 0; j < m.n; ++j) {
    if ((used >> j) & 1) continue;
    if (m.at(row, j) == 0) continue;
    total += BigInt::from_u64(m.at(row, j)) *
             expansion_rec(m, row + 1, used | (u64{1} << j));
  }
  return total;
}

}  // namespace

BigInt permanent_expansion(const IntMatrix& m) {
  if (m.n > 10) throw std::invalid_argument("permanent_expansion: n > 10");
  if (m.n == 0) return BigInt(1);
  return expansion_rec(m, 0, 0);
}

}  // namespace camelot
