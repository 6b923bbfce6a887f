#include "apps/conv3sum.hpp"

#include <stdexcept>

#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"

namespace camelot {

u64 ripple_carry_equal(std::span<const u64> y, std::span<const u64> z,
                       std::span<const u64> w, const PrimeField& f) {
  const std::size_t t = y.size();
  // S(b1,b2,b3) and M(b1,b2,b3): arithmetized XOR-sum and majority.
  auto s3 = [&](u64 b1, u64 b2, u64 b3) {
    const u64 n1 = f.sub(1, b1), n2 = f.sub(1, b2), n3 = f.sub(1, b3);
    u64 acc = f.mul(f.mul(n1, n2), b3);
    acc = f.add(acc, f.mul(f.mul(n1, b2), n3));
    acc = f.add(acc, f.mul(f.mul(b1, n2), n3));
    acc = f.add(acc, f.mul(f.mul(b1, b2), b3));
    return acc;
  };
  auto m3 = [&](u64 b1, u64 b2, u64 b3) {
    const u64 n1 = f.sub(1, b1), n2 = f.sub(1, b2), n3 = f.sub(1, b3);
    u64 acc = f.mul(f.mul(n1, b2), b3);
    acc = f.add(acc, f.mul(f.mul(b1, n2), b3));
    acc = f.add(acc, f.mul(f.mul(b1, b2), n3));
    acc = f.add(acc, f.mul(f.mul(b1, b2), b3));
    return acc;
  };
  u64 carry = 0;
  u64 prod = f.one();
  for (std::size_t j = 0; j < t; ++j) {
    const u64 s = s3(y[j], z[j], carry);
    // (1-w_j)(1-s) + w_j s.
    const u64 match =
        f.add(f.mul(f.sub(1, w[j]), f.sub(1, s)), f.mul(w[j], s));
    prod = f.mul(prod, match);
    carry = m3(y[j], z[j], carry);
  }
  // No overflow allowed: final carry must be 0.
  return f.mul(prod, f.sub(1, carry));
}

Conv3SumProblem::Conv3SumProblem(std::vector<u64> values, unsigned bits)
    : values_(std::move(values)), bits_(bits) {
  if (values_.size() < 2 || values_.size() % 2 != 0) {
    throw std::invalid_argument("Conv3Sum: need even n >= 2");
  }
  if (bits_ == 0 || bits_ > 40) {
    throw std::invalid_argument("Conv3Sum: need 1 <= bits <= 40");
  }
  for (u64 v : values_) {
    if (bits_ < 64 && v >= (u64{1} << bits_)) {
      throw std::invalid_argument("Conv3Sum: value exceeds bit width");
    }
  }
}

ProofSpec Conv3SumProblem::spec() const {
  const std::size_t n = values_.size();
  const std::size_t t = bits_;
  ProofSpec s;
  // T has total degree <= t^2 + 4t (carry chain); A_j degree <= n-1.
  s.degree_bound = (t * t + 4 * t) * (n - 1);
  // Evaluation points of A reach x0 + n/2; recovery reads P(1..n/2).
  s.min_modulus = 2 * n + 2;
  s.answer_count = n / 2;
  s.answer_bound = BigInt::from_u64(n);
  return s;
}

namespace {

class Conv3SumEvaluator : public Evaluator {
 public:
  Conv3SumEvaluator(const FieldOps& f, const std::vector<u64>& values,
                    unsigned bits)
      : Evaluator(f),
        values_(values),
        bits_(bits),
        lagrange_(1, values.size(), f) {}

  // A_j(x) interpolates bit j of A over the nodes 1..n.
  std::vector<u64> bits_at(u64 x0) const {
    const std::size_t n = values_.size();
    // On-node shortcut: at integer nodes the bits are exact.
    const u64 xr = field_.reduce(x0);
    if (xr >= 1 && xr <= n) {
      std::vector<u64> out(bits_);
      const u64 v = values_[static_cast<std::size_t>(xr) - 1];
      for (unsigned j = 0; j < bits_; ++j) out[j] = (v >> j) & 1;
      return out;
    }
    const std::vector<u64> basis = lagrange_.basis(x0);
    std::vector<u64> out(bits_, 0);
    for (std::size_t i = 0; i < n; ++i) {
      if (basis[i] == 0) continue;
      const u64 v = values_[i];
      for (unsigned j = 0; j < bits_; ++j) {
        if ((v >> j) & 1) out[j] = field_.add(out[j], basis[i]);
      }
    }
    return out;
  }

  u64 eval(u64 x0) override {
    const std::size_t n = values_.size();
    const std::vector<u64> ax = bits_at(x0);
    u64 total = 0;
    for (u64 l = 1; l <= n / 2; ++l) {
      const std::vector<u64> al = bits_at(l);
      const std::vector<u64> axl = bits_at(field_.add(field_.reduce(x0),
                                                      field_.reduce(l)));
      total = field_.add(total, ripple_carry_equal(ax, al, axl, field_));
    }
    return total;
  }

 private:
  const std::vector<u64>& values_;
  unsigned bits_;
  ConsecutiveLagrange lagrange_;  // nodes 1..n
};

}  // namespace

std::unique_ptr<Evaluator> Conv3SumProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<Conv3SumEvaluator>(f, values_, bits_);
}

std::vector<u64> Conv3SumProblem::recover(const Poly& proof,
                                          const FieldOps& f) const {
  return range_evaluate(proof, 1, values_.size() / 2, f);
}

std::vector<u64> conv3sum_brute(const std::vector<u64>& values) {
  const std::size_t n = values.size();
  std::vector<u64> out(n / 2, 0);
  for (std::size_t i = 1; i <= n / 2; ++i) {
    for (std::size_t l = 1; l <= n / 2; ++l) {
      if (i + l <= n && values[i - 1] + values[l - 1] == values[i + l - 1]) {
        ++out[i - 1];
      }
    }
  }
  return out;
}

}  // namespace camelot
