// The §5.3 evaluation of the (6,2) proof polynomial over blocks of
// points (paper §5.2-§5.3, Theorem 1).
//
// A node evaluates P at its whole chunk of points. The kernels below
// take the chunk kPointBlock points at a time and keep the point
// index innermost, so every lane call of the resolved backend covers
// the whole block:
//   * Form62Coefficients: the R x B Lagrange basis by the factorial
//     trick (ConsecutiveLagrange::basis_mont_block, one sweep of both
//     product chains), then the three Yates transforms of eq. (17)
//     with a batch of B columns, each level reading its input once
//     and writing its output once, giving the interpolated coefficient
//     matrices alpha(x_b), beta(x_b), gamma(x_b) as n x n x B blocks
//     in the transforms' interleaved row order;
//   * Form62BlockCircuit: the circuit (15)-(16) on those blocks, whose
//     first pass over each block reads it in that order.
// Values stay in the Montgomery domain throughout; callers convert
// each point's result out once. Field arithmetic is exact, so every
// result equals the per-point reference form62_circuit_term.
#pragma once

#include <array>
#include <span>
#include <vector>

#include "count/form62.hpp"
#include "field/field_ops.hpp"
#include "poly/lagrange.hpp"

namespace camelot {

// Three n x n matrices (n = n0^t) for `width` points, Montgomery
// domain, as the Yates transforms leave them: entry (i, j) of point b
// sits at interleave_pair_index(i, j, n0, t) * width + b (the base-n0
// digits of i and j paired up, linalg/tensor.hpp).
struct Form62Blocks {
  std::size_t width = 0;
  std::size_t n0 = 0;
  unsigned t = 0;
  std::vector<u64> alpha, beta, gamma;
  // Working storage of Form62Coefficients::interpolate (the basis
  // block and the Yates levels), kept so that a caller reusing one
  // Form62Blocks across blocks allocates it once.
  std::vector<u64> lambda, scratch;
};

// Per-node precomputation for the t-fold Kronecker power of `dec`
// over one field: the Lagrange cache for the nodes 1..R (R = R0^t)
// and the coefficient tables in the Montgomery domain.
class Form62Coefficients {
 public:
  Form62Coefficients(const TrilinearDecomposition& dec, unsigned t,
                     const FieldOps& f);

  // alpha_de(x_b) = sum_r alpha_de(r) Lambda_r(x_b) (eq. (14)), and
  // likewise beta and gamma, for every point of xs.
  void interpolate(std::span<const u64> xs, Form62Blocks& out) const;

 private:
  FieldOps ops_;
  std::size_t n0_, rank0_;
  unsigned t_;
  ConsecutiveLagrange lagrange_;
  std::vector<u64> alpha_table_, beta_table_, gamma_table_;
};

// The circuit (15)-(16) for one Form62Input, over blocks of points:
// six products of a fixed matrix with a block (one lane sweep of
// n * width words per nonzero entry of the fixed matrix), the
// Hadamard masks, and the point-dependent product Q contracted
// against chi12 o A.
class Form62BlockCircuit {
 public:
  // Converts the 15 matrices to the Montgomery domain once. Throws
  // std::invalid_argument unless in.well_formed().
  Form62BlockCircuit(const Form62Input& in, const FieldOps& f);

  // out[b] = P(x_b), Montgomery domain, for the blocks' points
  // (blocks of in.size() x in.size() matrices; throws
  // std::invalid_argument otherwise). `scratch` is resized as needed
  // and can be reused across calls.
  void evaluate(const Form62Blocks& blocks, u64* out,
                std::vector<u64>& scratch) const;

 private:
  template <class F>
  void run(const F& f, const Form62Blocks& in, u64* out,
           std::vector<u64>& scratch) const;

  FieldOps ops_;
  std::size_t n_;
  std::array<std::vector<u64>, 15> mats_;  // row-major, Montgomery
  std::vector<u64> chi23_t_;               // pair (2,3), transposed
};

}  // namespace camelot
