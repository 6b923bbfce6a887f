// The (6,2)-linear form (paper §4):
//
//   X = sum_{a,b,c,d,e,f} chi_ab chi_ac chi_ad chi_ae chi_af chi_bc
//       chi_bd chi_be chi_bf chi_cd chi_ce chi_cf chi_de chi_df chi_ef
//
// generalized (paper footnote 17) to 15 distinct N x N matrices, one
// per position pair — the generalization Theorem 12 needs. Three
// evaluators:
//   * direct O(N^6) summation (ground truth);
//   * the Nesetril--Poljak formula, O(N^{2 omega}) time, O(N^4) space;
//   * the paper's new circuit (§4.2, Theorem 13), same time but
//     O(N^2) space and parallelizable over the rank terms.
#pragma once

#include <array>

#include "linalg/matmul.hpp"
#include "linalg/tensor.hpp"

namespace camelot {

// Canonical index of the position pair (s, t), 1 <= s < t <= 6,
// in lexicographic order: (1,2)=0, (1,3)=1, ..., (5,6)=14.
std::size_t form62_pair_index(int s, int t);

// The 15 matrices; positions a..f are numbered 1..6.
struct Form62Input {
  std::array<Matrix, 15> mats;

  // All 15 matrices equal to chi (the paper's single-matrix setting).
  static Form62Input uniform(const Matrix& chi);

  const Matrix& pair(int s, int t) const {
    return mats[form62_pair_index(s, t)];
  }
  std::size_t size() const { return mats[0].rows(); }

  // True iff all 15 matrices are square, non-empty and of one size.
  bool well_formed() const;
};

// Direct O(N^6) evaluation.
u64 form62_direct(const Form62Input& in, const PrimeField& f);

// Nesetril--Poljak: three N^2 x N^2 matrices U, S, T and one fast
// product V = S T^T (paper §4.1).
u64 form62_nesetril_poljak(const Form62Input& in, const PrimeField& f);

// One top-level term of the new design given *already materialized*
// coefficient matrices: alpha_mat(d,e) = alpha_de, etc. This is the
// shared circuit (11)-(12)/(15)-(16): eight N x N matrix products.
u64 form62_circuit_term(const Form62Input& in, const Matrix& alpha_mat,
                        const Matrix& beta_mat, const Matrix& gamma_mat,
                        const PrimeField& f);

// The new summation formula (Theorem 13): X = sum_{r} P(r), where the
// input matrices are zero-padded to n0^t >= N and r ranges over the
// R0^t rank terms of the t-fold Kronecker power of `dec`.
// Space O(N^2): coefficient matrices are materialized one r at a time.
u64 form62_new_circuit(const Form62Input& in,
                       const TrilinearDecomposition& dec, unsigned t,
                       const PrimeField& f);

// Partial sum over r in [r_begin, r_end) — the unit of work one
// compute node contributes in the parallel execution of Theorem 2.
u64 form62_new_circuit_range(const Form62Input& in,
                             const TrilinearDecomposition& dec, unsigned t,
                             u64 r_begin, u64 r_end, const PrimeField& f);

// Zero-pads every matrix of `in` to n0^t x n0^t.
Form62Input form62_padded(const Form62Input& in, std::size_t target);

}  // namespace camelot
