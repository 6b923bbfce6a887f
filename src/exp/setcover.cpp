#include "exp/setcover.hpp"

#include <bit>
#include <stdexcept>

#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"

namespace camelot {

SetCoverProblem::SetCoverProblem(std::size_t n, std::vector<u64> family,
                                 u64 t)
    : n_(n), family_(std::move(family)), t_(t) {
  if (n_ == 0 || n_ % 2 != 0 || n_ > 30) {
    throw std::invalid_argument("SetCoverProblem: need even n <= 30");
  }
  if (t_ == 0) throw std::invalid_argument("SetCoverProblem: t >= 1");
  for (u64 x : family_) {
    if (x >= (u64{1} << n_)) {
      throw std::invalid_argument("SetCoverProblem: set outside universe");
    }
  }
}

ProofSpec SetCoverProblem::spec() const {
  const std::size_t h = n_ / 2;
  const u64 big_m = u64{1} << h;
  ProofSpec s;
  // F_t has per-variable degree 1 + t over h variables; D_j has
  // degree M-1.
  s.degree_bound = h * (1 + t_) * (big_m - 1);
  s.min_modulus = big_m + 1;
  s.answer_count = 1;
  s.answer_bound =
      BigInt::power_of_two(static_cast<unsigned>(n_ * t_ + 1));
  return s;
}

namespace {

class SetCoverEvaluator : public Evaluator {
 public:
  SetCoverEvaluator(const FieldOps& f, std::size_t n,
                    const std::vector<u64>& family, u64 t)
      : Evaluator(f),
        n_(n),
        h_(n / 2),
        family_(family),
        t_(t),
        lagrange_(0, std::size_t{1} << h_, f) {}

  u64 eval(u64 x0) override {
    const std::size_t big_m = std::size_t{1} << h_;
    const std::vector<u64> basis = lagrange_.basis(x0);
    std::vector<u64> d(h_, 0);
    for (std::size_t i = 0; i < big_m; ++i) {
      if (basis[i] == 0) continue;
      for (std::size_t j = 0; j < h_; ++j) {
        if ((i >> j) & 1) d[j] = field_.add(d[j], basis[i]);
      }
    }
    // Per set X: product over the first-half elements, and the
    // second-half mask it requires.
    const u64 first_mask = (u64{1} << h_) - 1;
    std::vector<u64> first_prod(family_.size());
    std::vector<u64> second_mask(family_.size());
    for (std::size_t s = 0; s < family_.size(); ++s) {
      u64 prod = field_.one();
      u64 lo = family_[s] & first_mask;
      while (lo != 0 && prod != 0) {
        prod = field_.mul(prod, d[std::countr_zero(lo)]);
        lo &= lo - 1;
      }
      first_prod[s] = prod;
      second_mask[s] = family_[s] >> h_;
    }
    // Sign prefix over the first half: (-1)^n prod (1 - 2 D_j).
    u64 prefix = n_ % 2 == 0 ? field_.one() : field_.neg(field_.one());
    const u64 two = field_.reduce(2);
    for (std::size_t j = 0; j < h_; ++j) {
      prefix = field_.mul(prefix, field_.sub(1, field_.mul(two, d[j])));
    }
    const std::size_t h2 = n_ - h_;
    u64 total = 0;
    for (u64 y2 = 0; y2 < (u64{1} << h2); ++y2) {
      u64 inner = 0;
      for (std::size_t s = 0; s < family_.size(); ++s) {
        if ((second_mask[s] & ~y2) != 0) continue;  // X ⊄ Y
        inner = field_.add(inner, first_prod[s]);
      }
      u64 term = field_.mul(prefix, field_.pow(inner, t_));
      if (std::popcount(y2) % 2 == 1) term = field_.neg(term);
      total = field_.add(total, term);
    }
    return total;
  }

 private:
  std::size_t n_, h_;
  const std::vector<u64>& family_;
  u64 t_;
  ConsecutiveLagrange lagrange_;  // nodes 0..M-1
};

}  // namespace

std::unique_ptr<Evaluator> SetCoverProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<SetCoverEvaluator>(f, n_, family_, t_);
}

std::vector<u64> SetCoverProblem::recover(const Poly& proof,
                                          const FieldOps& f) const {
  const u64 big_m = u64{1} << (n_ / 2);
  return {range_sum(proof, 0, big_m - 1, f)};
}

BigInt count_set_covers_brute(std::size_t n, const std::vector<u64>& family,
                              u64 t) {
  if (n > 20) throw std::invalid_argument("set cover brute: n > 20");
  BigInt total(0);
  for (u64 y = 0; y < (u64{1} << n); ++y) {
    u64 contained = 0;
    for (u64 x : family) {
      if ((x & ~y) == 0) ++contained;
    }
    BigInt term = BigInt::from_u64(contained).pow_u32(static_cast<u32>(t));
    if ((n - std::popcount(y)) % 2 == 1) term = -term;
    total += term;
  }
  return total;
}

}  // namespace camelot
