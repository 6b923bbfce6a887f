// The permanent of an integer matrix (paper §A.5, Theorem 8(2)).
//
// Ryser: per A = sum_{S subseteq [n]} (-1)^{n-|S|} prod_i sum_{j in S}
// a_ij. The proof polynomial interpolates the first half of the
// subset-indicator vector through D(x) (eq. (43)) and sums the second
// half explicitly (eq. (44)); per A = sum_{i=0}^{2^{n/2}-1} P(i).
// Proof size and per-node time O*(2^{n/2}).
#pragma once

#include "core/proof_problem.hpp"

namespace camelot {

// Dense nonnegative integer matrix (entries < 2^20 to keep bounds
// comfortable; the construction itself is sign-agnostic).
struct IntMatrix {
  std::size_t n = 0;
  std::vector<u64> a;  // row-major

  u64 at(std::size_t i, std::size_t j) const { return a[i * n + j]; }
  u64& at(std::size_t i, std::size_t j) { return a[i * n + j]; }

  static IntMatrix random(std::size_t n, u64 max_entry, u64 seed);
};

class PermanentProblem : public CamelotProblem {
 public:
  // Requires even n, 2 <= n <= 30.
  explicit PermanentProblem(IntMatrix m);

  std::string name() const override { return "permanent"; }
  ProofSpec spec() const override;
  std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const override;
  std::vector<u64> recover(const Poly& proof, const FieldOps& f) const override;

  std::size_t n() const noexcept { return m_.n; }

 private:
  IntMatrix m_;
  u64 max_entry_ = 0;
};

// Ryser's sequential algorithm with Gray-code updates, O(2^n n).
BigInt permanent_ryser(const IntMatrix& m);

// O(n!) expansion for tiny matrices (ground truth of the ground truth).
BigInt permanent_expansion(const IntMatrix& m);

}  // namespace camelot
