#include "count/triangle_camelot.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "field/backend_dispatch.hpp"
#include "poly/multipoint.hpp"
#include "yates/poly_ext.hpp"

namespace camelot {

namespace {

std::vector<u64> transpose_table(const std::vector<u64>& tab, std::size_t nn,
                                 std::size_t rank) {
  std::vector<u64> out(rank * nn);
  for (std::size_t p = 0; p < nn; ++p) {
    for (std::size_t r = 0; r < rank; ++r) {
      out[r * nn + p] = tab[p * rank + r];
    }
  }
  return out;
}

class TriangleEvaluator : public Evaluator {
 public:
  // Per-node precomputation, shared by every evaluation point: the
  // three extensions' Montgomery tables and the outer Lagrange cache.
  TriangleEvaluator(const FieldOps& f, const TrilinearDecomposition& dec,
                    unsigned t, unsigned ell,
                    const std::vector<SparseEntry>& entries)
      : Evaluator(f),
        ext_a_(extension(f, dec.alpha_mod(f.prime()), dec, t, ell, entries)),
        ext_b_(extension(f, dec.beta_mod(f.prime()), dec, t, ell, entries)),
        ext_c_(extension(f, dec.gamma_mod(f.prime()), dec, t, ell, entries)) {}

  u64 eval(u64 x0) override { return evaluate_points({&x0, 1})[0]; }

  // P(x_b) = sum_{r'} A_{r'}(x_b) B_{r'}(x_b) C_{r'}(x_b), kPointBlock
  // points at a time. The three extensions share the outer basis (same
  // decomposition parameters), so it is computed once per block; the
  // products and the row sum stay in the Montgomery domain, converted
  // once per point on return.
  std::vector<u64> evaluate_points(std::span<const u64> xs) override {
    std::vector<u64> out(xs.size());
    const std::size_t rows = ext_a_.part_size();
    std::vector<u64> phi;
    for (std::size_t lo = 0; lo < xs.size(); lo += kPointBlock) {
      const std::span<const u64> block =
          xs.subspan(lo, std::min(kPointBlock, xs.size() - lo));
      const std::size_t w = block.size();
      ext_a_.lagrange().basis_mont_block(block, phi);
      std::vector<u64> pa = ext_a_.evaluate_block_mont(phi, w);
      const std::vector<u64> pb = ext_b_.evaluate_block_mont(phi, w);
      const std::vector<u64> pc = ext_c_.evaluate_block_mont(phi, w);
      with_lane_field(ops_.backend(), ops_.mont(), [&](const auto& lf) {
        vec_mul(lf, pa.data(), pb.data(), pa.data(), rows * w);
        vec_mul(lf, pa.data(), pc.data(), pa.data(), rows * w);
        // Row sum by a halving fold: each step adds the top rows onto
        // the bottom ones in one lane call.
        for (std::size_t len = rows; len > 1;) {
          const std::size_t half = len / 2;
          vec_add(lf, pa.data(), pa.data() + (len - half) * w, half * w);
          len -= half;
        }
      });
      std::copy_n(pa.data(), w, out.data() + lo);
    }
    ops_.mont().from_mont_inplace(out);
    return out;
  }

 private:
  static YatesPolynomialExtension extension(
      const FieldOps& f, const std::vector<u64>& table,
      const TrilinearDecomposition& dec, unsigned t, unsigned ell,
      const std::vector<SparseEntry>& entries) {
    const std::size_t nn = dec.n0 * dec.n0;
    return YatesPolynomialExtension(f, transpose_table(table, nn, dec.rank),
                                    dec.rank, nn, t, entries,
                                    static_cast<int>(ell));
  }

  YatesPolynomialExtension ext_a_, ext_b_, ext_c_;
};

}  // namespace

TriangleCountProblem::TriangleCountProblem(const Graph& g,
                                           TrilinearDecomposition dec,
                                           int ell_override)
    : dec_(std::move(dec)), n_vertices_(g.num_vertices()) {
  if (g.num_edges() == 0) {
    throw std::invalid_argument(
        "TriangleCountProblem: empty graph (trace is trivially 0)");
  }
  t_ = kronecker_exponent(dec_.n0,
                          std::max<std::size_t>(g.num_vertices(), 2));
  entries_ = adjacency_sparse_interleaved(g, dec_.n0, t_);
  if (ell_override >= 0) {
    ell_ = std::min<unsigned>(static_cast<unsigned>(ell_override), t_);
  } else {
    unsigned ell = 0;
    while (ipow(dec_.rank, ell) < entries_.size() && ell < t_) ++ell;
    ell_ = ell;
  }
  num_outer_ = ipow(dec_.rank, t_ - ell_);
  part_size_ = ipow(dec_.rank, ell_);
}

ProofSpec TriangleCountProblem::spec() const {
  ProofSpec s;
  s.degree_bound = 3 * (num_outer_ - 1);
  // The Yates extension's Lagrange nodes 1..R/m' must be distinct mod q.
  s.min_modulus = num_outer_ + 1;
  s.answer_count = 1;
  // trace(A^3) <= n^3.
  s.answer_bound =
      BigInt::from_u64(n_vertices_).pow_u32(3) + BigInt(6);
  return s;
}

std::unique_ptr<Evaluator> TriangleCountProblem::make_evaluator(
    const FieldOps& f) const {
  return std::make_unique<TriangleEvaluator>(f, dec_, t_, ell_, entries_);
}

std::vector<u64> TriangleCountProblem::recover(const Poly& proof,
                                               const FieldOps& f) const {
  return {range_sum(proof, 1, num_outer_, f)};
}

BigInt TriangleCountProblem::triangles_from_answer(const BigInt& trace) {
  u64 rem = 0;
  BigInt t = trace.divmod_u64(6, &rem);
  if (rem != 0) {
    throw std::logic_error("triangles_from_answer: trace not divisible by 6");
  }
  return t;
}

}  // namespace camelot
