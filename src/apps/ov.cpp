#include "apps/ov.hpp"

#include <algorithm>
#include <random>
#include <stdexcept>

#include "field/backend_dispatch.hpp"
#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"

namespace camelot {

BoolMatrix BoolMatrix::random(std::size_t rows, std::size_t cols,
                              double density, u64 seed) {
  std::mt19937_64 rng(seed);
  std::bernoulli_distribution coin(density);
  BoolMatrix m;
  m.rows = rows;
  m.cols = cols;
  m.bits.resize(rows * cols);
  for (char& b : m.bits) b = coin(rng) ? 1 : 0;
  return m;
}

OrthogonalVectorsProblem::OrthogonalVectorsProblem(BoolMatrix a, BoolMatrix b)
    : a_(std::move(a)), b_(std::move(b)) {
  if (a_.rows == 0 || a_.rows != b_.rows || a_.cols != b_.cols) {
    throw std::invalid_argument("OrthogonalVectors: shape mismatch");
  }
  const std::size_t n = a_.rows, t = a_.cols;
  for (std::size_t j = 0; j < t; ++j) {
    bits_.a_col_start.push_back(bits_.a_rows.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (a_.at(i, j)) bits_.a_rows.push_back(static_cast<u32>(i));
    }
  }
  bits_.a_col_start.push_back(bits_.a_rows.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t start = bits_.b_cols.size();
    for (std::size_t j = 0; j < t; ++j) {
      if (b_.at(i, j)) bits_.b_cols.push_back(static_cast<u32>(j));
    }
    if (bits_.b_cols.size() == start) {
      ++bits_.empty_b_rows;
    } else {
      bits_.b_row_start.push_back(start);
    }
  }
  bits_.b_row_start.push_back(bits_.b_cols.size());
}

ProofSpec OrthogonalVectorsProblem::spec() const {
  ProofSpec s;
  // B has total degree t; each A_j has degree <= n-1.
  s.degree_bound = a_.cols * (a_.rows - 1);
  s.min_modulus = a_.rows + 1;  // recovery reads P(1..n)
  s.answer_count = a_.rows;
  s.answer_bound = BigInt::from_u64(a_.rows);
  return s;
}

namespace {

class OvEvaluator : public Evaluator {
 public:
  // The Lagrange cache over the nodes 1..n is built once per
  // evaluator; the set-bit lists are the problem's, shared by all.
  OvEvaluator(const FieldOps& f, std::size_t n, std::size_t t,
              const OrthogonalVectorsProblem::SetBits& bits)
      : Evaluator(f),
        t_(t),
        bits_(bits),
        lagrange_(1, n, f),
        empty_rows_(ops_.mont().from_u64(bits.empty_b_rows)) {}

  u64 eval(u64 x0) override { return evaluate_points({&x0, 1})[0]; }

  // P(x_b) = B(A(x_b)), kPointBlock points at a time with the point
  // index innermost, in the Montgomery domain until the one conversion
  // on return. Per block: the n x w basis phi, then
  // z_j = A_j(x_b) = sum_{i: a_ij = 1} phi_i, y_j = 1 - z_j, and
  // B = sum_i prod_{j: b_ij = 1} y_j, accumulated into the output
  // from the count of empty rows of B (each a product of 1).
  std::vector<u64> evaluate_points(std::span<const u64> xs) override {
    std::vector<u64> out(xs.size());
    const MontgomeryField& m = ops_.mont();
    for (std::size_t lo = 0; lo < xs.size(); lo += kPointBlock) {
      const std::span<const u64> block =
          xs.subspan(lo, std::min(kPointBlock, xs.size() - lo));
      const std::size_t w = block.size();
      lagrange_.basis_mont_block(block, phi_);
      y_.assign(t_ * w, 0);
      prod_.resize(w);
      u64* total = out.data() + lo;
      std::fill_n(total, w, empty_rows_);
      with_lane_field(ops_.backend(), m, [&](const auto& lf) {
        for (std::size_t j = 0; j < t_; ++j) {
          for (std::size_t k = bits_.a_col_start[j];
               k < bits_.a_col_start[j + 1]; ++k) {
            vec_add(lf, y_.data() + j * w,
                    phi_.data() + bits_.a_rows[k] * w, w);
          }
        }
        vec_sub_from(lf, m.one(), y_.data(), y_.data(), t_ * w);
        const std::vector<std::size_t>& rows = bits_.b_row_start;
        for (std::size_t r = 0; r + 1 < rows.size(); ++r) {
          const u32* col = bits_.b_cols.data() + rows[r];
          const u32* end = bits_.b_cols.data() + rows[r + 1];
          const u64* p = y_.data() + *col * w;
          for (++col; col != end; ++col) {
            vec_mul(lf, p, y_.data() + *col * w, prod_.data(), w);
            p = prod_.data();
          }
          vec_add(lf, total, p, w);
        }
      });
    }
    m.from_mont_inplace(out);
    return out;
  }

 private:
  std::size_t t_;
  const OrthogonalVectorsProblem::SetBits& bits_;
  ConsecutiveLagrange lagrange_;
  u64 empty_rows_;  // Montgomery form of bits_.empty_b_rows
  // Per-block buffers, reused from block to block: the basis (n x w),
  // z and then y (t x w) and one row's running product (w).
  std::vector<u64> phi_, y_, prod_;
};

}  // namespace

std::unique_ptr<Evaluator> OrthogonalVectorsProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<OvEvaluator>(f, a_.rows, a_.cols, bits_);
}

std::vector<u64> OrthogonalVectorsProblem::recover(
    const Poly& proof, const FieldOps& f) const {
  return range_evaluate(proof, 1, a_.rows, f);
}

std::vector<u64> count_orthogonal_brute(const BoolMatrix& a,
                                        const BoolMatrix& b) {
  std::vector<u64> c(a.rows, 0);
  for (std::size_t i = 0; i < a.rows; ++i) {
    for (std::size_t k = 0; k < b.rows; ++k) {
      bool orth = true;
      for (std::size_t j = 0; j < a.cols; ++j) {
        if (a.at(i, j) && b.at(k, j)) {
          orth = false;
          break;
        }
      }
      if (orth) ++c[i];
    }
  }
  return c;
}

}  // namespace camelot
