#include "exp/hamilton.hpp"

#include <bit>
#include <stdexcept>

#include "poly/lagrange.hpp"
#include "poly/multipoint.hpp"

namespace camelot {

HamiltonCycleProblem::HamiltonCycleProblem(const Graph& g) : graph_(g) {
  const std::size_t n = g.num_vertices();
  if (n < 3 || n > 24) {
    throw std::invalid_argument("HamiltonCycleProblem: need 3 <= n <= 24");
  }
  // Variables are the vertices 1..n-1 (vertex 0 is the anchor).
  h1_ = (n - 1) / 2;
  h2_ = (n - 1) - h1_;
}

ProofSpec HamiltonCycleProblem::spec() const {
  const std::size_t n = graph_.num_vertices();
  const u64 big_m = u64{1} << h1_;
  ProofSpec s;
  // walks polynomial has total degree <= n; sign product adds h1;
  // composed with D_j of degree M-1.
  s.degree_bound = (n + h1_) * (big_m - 1);
  s.min_modulus = big_m + 1;
  s.answer_count = 1;
  // Directed Hamiltonian cycles <= (n-1)!; inclusion-exclusion
  // intermediate sums are bounded by 2^{n-1} n^n walks.
  BigInt bound = BigInt::power_of_two(static_cast<unsigned>(n));
  bound = bound * BigInt::from_u64(n).pow_u32(static_cast<u32>(n));
  s.answer_bound = bound;
  return s;
}

namespace {

class HamiltonEvaluator : public Evaluator {
 public:
  HamiltonEvaluator(const FieldOps& f, const Graph& g, std::size_t h1,
                    std::size_t h2)
      : Evaluator(f),
        g_(g),
        h1_(h1),
        h2_(h2),
        lagrange_(0, std::size_t{1} << h1, f) {}

  u64 eval(u64 x0) override {
    const std::size_t n = g_.num_vertices();
    const std::size_t big_m = std::size_t{1} << h1_;
    // D_j(x0) for the first-half membership variables (vertices
    // 1..h1), interpolating bit j over the nodes 0..M-1.
    const std::vector<u64> basis = lagrange_.basis(x0);
    std::vector<u64> d(h1_, 0);
    for (std::size_t i = 0; i < big_m; ++i) {
      if (basis[i] == 0) continue;
      for (std::size_t j = 0; j < h1_; ++j) {
        if ((i >> j) & 1) d[j] = field_.add(d[j], basis[i]);
      }
    }
    // Membership weights per vertex: z_0 = 1 (anchor); vertices
    // 1..h1 interpolated; vertices h1+1..n-1 set per explicit subset.
    std::vector<u64> z(n, 0);
    z[0] = field_.one();
    for (std::size_t j = 0; j < h1_; ++j) z[1 + j] = d[j];
    // Sign prefix: (-1)^{n-1} prod_{first half} (1 - 2 z_v).
    u64 prefix = (n - 1) % 2 == 0 ? field_.one() : field_.neg(field_.one());
    const u64 two = field_.reduce(2);
    for (std::size_t j = 0; j < h1_; ++j) {
      prefix = field_.mul(prefix, field_.sub(1, field_.mul(two, d[j])));
    }
    u64 total = 0;
    for (u64 sub = 0; sub < (u64{1} << h2_); ++sub) {
      for (std::size_t j = 0; j < h2_; ++j) {
        z[1 + h1_ + j] = (sub >> j) & 1 ? field_.one() : 0;
      }
      // Second-half sign factor prod_j (1 - 2 z''_j) = (-1)^{|sub|}.
      u64 term = prefix;
      if (std::popcount(sub) % 2 == 1) term = field_.neg(term);
      total = field_.add(total, field_.mul(term, closed_walks(z)));
    }
    return total;
  }

 private:
  // Number of closed length-n walks from vertex 0, each visit to v
  // weighted by z_v: u <- diag(z) A u, n times, read entry 0.
  u64 closed_walks(const std::vector<u64>& z) const {
    const std::size_t n = g_.num_vertices();
    std::vector<u64> u(n, 0), next(n, 0);
    u[0] = field_.one();
    for (std::size_t step = 0; step < n; ++step) {
      for (std::size_t v = 0; v < n; ++v) {
        if (z[v] == 0 && v != 0) {
          next[v] = 0;
          continue;
        }
        u64 acc = 0;
        u64 nbrs = g_.neighbors_mask(v);
        while (nbrs != 0) {
          const unsigned w = std::countr_zero(nbrs);
          nbrs &= nbrs - 1;
          acc = field_.add(acc, u[w]);
        }
        next[v] = field_.mul(acc, z[v]);
      }
      u.swap(next);
    }
    return u[0];
  }

  const Graph& g_;
  std::size_t h1_, h2_;
  ConsecutiveLagrange lagrange_;  // nodes 0..M-1
};

}  // namespace

std::unique_ptr<Evaluator> HamiltonCycleProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<HamiltonEvaluator>(f, graph_, h1_, h2_);
}

std::vector<u64> HamiltonCycleProblem::recover(const Poly& proof,
                                               const FieldOps& f) const {
  const u64 big_m = u64{1} << h1_;
  return {range_sum(proof, 0, big_m - 1, f)};
}

BigInt HamiltonCycleProblem::undirected_from_answer(const BigInt& directed) {
  u64 rem = 0;
  BigInt half = directed.divmod_u64(2, &rem);
  if (rem != 0) {
    throw std::logic_error("hamilton: directed count must be even");
  }
  return half;
}

}  // namespace camelot
