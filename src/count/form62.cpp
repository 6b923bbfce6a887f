#include "count/form62.hpp"

#include <stdexcept>

namespace camelot {

std::size_t form62_pair_index(int s, int t) {
  if (s < 1 || t <= s || t > 6) {
    throw std::invalid_argument("form62_pair_index: need 1 <= s < t <= 6");
  }
  // Offsets of the blocks (1,*), (2,*), ..., (5,*): 0, 5, 9, 12, 14.
  static constexpr int offset[6] = {0, 0, 5, 9, 12, 14};
  return static_cast<std::size_t>(offset[s] + (t - s - 1));
}

Form62Input Form62Input::uniform(const Matrix& chi) {
  Form62Input in;
  for (Matrix& m : in.mats) m = chi;
  return in;
}

bool Form62Input::well_formed() const {
  const std::size_t n = size();
  if (n == 0) return false;
  for (const Matrix& m : mats) {
    if (m.rows() != n || m.cols() != n) return false;
  }
  return true;
}

Form62Input form62_padded(const Form62Input& in, std::size_t target) {
  Form62Input out;
  for (std::size_t i = 0; i < in.mats.size(); ++i) {
    out.mats[i] = in.mats[i].padded(target, target);
  }
  return out;
}

u64 form62_direct(const Form62Input& in, const PrimeField& f) {
  const std::size_t n = in.size();
  u64 total = 0;
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const u64 w_ab = in.pair(1, 2).at(a, b);
      if (w_ab == 0) continue;
      for (std::size_t c = 0; c < n; ++c) {
        const u64 w_abc =
            f.mul(w_ab, f.mul(in.pair(1, 3).at(a, c), in.pair(2, 3).at(b, c)));
        if (w_abc == 0) continue;
        for (std::size_t d = 0; d < n; ++d) {
          const u64 w_abcd =
              f.mul(w_abc, f.mul(in.pair(1, 4).at(a, d),
                                 f.mul(in.pair(2, 4).at(b, d),
                                       in.pair(3, 4).at(c, d))));
          if (w_abcd == 0) continue;
          for (std::size_t e = 0; e < n; ++e) {
            const u64 w5 = f.mul(
                f.mul(in.pair(1, 5).at(a, e), in.pair(2, 5).at(b, e)),
                f.mul(in.pair(3, 5).at(c, e), in.pair(4, 5).at(d, e)));
            if (w5 == 0) continue;
            const u64 w_abcde = f.mul(w_abcd, w5);
            for (std::size_t fi = 0; fi < n; ++fi) {
              const u64 w6 = f.mul(
                  f.mul(f.mul(in.pair(1, 6).at(a, fi),
                              in.pair(2, 6).at(b, fi)),
                        f.mul(in.pair(3, 6).at(c, fi),
                              in.pair(4, 6).at(d, fi))),
                  f.mul(in.pair(5, 6).at(e, fi), f.one()));
              total = f.add(total, f.mul(w_abcde, w6));
            }
          }
        }
      }
    }
  }
  return total;
}

u64 form62_nesetril_poljak(const Form62Input& in, const PrimeField& f) {
  const std::size_t n = in.size();
  const std::size_t n2 = n * n;
  // U_{(a,b),(c,d)} = chi12_ab chi13_ac chi14_ad chi23_bc chi24_bd.
  Matrix u_mat(n2, n2), s_mat(n2, n2), t_mat(n2, n2);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) {
      const std::size_t row = a * n + b;
      for (std::size_t c = 0; c < n; ++c) {
        for (std::size_t d = 0; d < n; ++d) {
          u_mat.at(row, c * n + d) = f.mul(
              f.mul(in.pair(1, 2).at(a, b), in.pair(1, 3).at(a, c)),
              f.mul(in.pair(1, 4).at(a, d),
                    f.mul(in.pair(2, 3).at(b, c), in.pair(2, 4).at(b, d))));
        }
      }
      // S_{(a,b),(e,f)} = chi15_ae chi16_af chi25_be chi26_bf chi56_ef.
      for (std::size_t e = 0; e < n; ++e) {
        for (std::size_t fi = 0; fi < n; ++fi) {
          s_mat.at(row, e * n + fi) = f.mul(
              f.mul(in.pair(1, 5).at(a, e), in.pair(1, 6).at(a, fi)),
              f.mul(in.pair(2, 5).at(b, e),
                    f.mul(in.pair(2, 6).at(b, fi),
                          in.pair(5, 6).at(e, fi))));
        }
      }
    }
  }
  // T_{(c,d),(e,f)} = chi34_cd chi35_ce chi36_cf chi45_de chi46_df.
  for (std::size_t c = 0; c < n; ++c) {
    for (std::size_t d = 0; d < n; ++d) {
      const std::size_t row = c * n + d;
      for (std::size_t e = 0; e < n; ++e) {
        for (std::size_t fi = 0; fi < n; ++fi) {
          t_mat.at(row, e * n + fi) = f.mul(
              f.mul(in.pair(3, 4).at(c, d), in.pair(3, 5).at(c, e)),
              f.mul(in.pair(3, 6).at(c, fi),
                    f.mul(in.pair(4, 5).at(d, e),
                          in.pair(4, 6).at(d, fi))));
        }
      }
    }
  }
  Matrix v_mat = matmul(s_mat, t_mat.transposed(), f);
  return matrix_dot(u_mat, v_mat, f);
}

u64 form62_circuit_term(const Form62Input& in, const Matrix& alpha_mat,
                        const Matrix& beta_mat, const Matrix& gamma_mat,
                        const PrimeField& f) {
  // Eq. (11)/(15): three "inner" products H, K, L followed by the
  // masked products A, B, C, then (12)/(16): Q and the contraction.
  //   H = chi15 (alpha o chi45)^T      A = (chi14 o H) chi24^T
  //   K = chi26 (beta  o chi56)^T      B = (chi25 o K) chi35^T
  //   L = chi34 (gamma o chi46)        C = chi16 (chi36 o L)^T
  //   Q = (chi13 o C) (chi23 o B)^T    P = <chi12 o A, Q>.
  Matrix h = matmul(in.pair(1, 5),
                    matrix_hadamard(alpha_mat, in.pair(4, 5), f).transposed(),
                    f);
  Matrix a = matmul(matrix_hadamard(in.pair(1, 4), h, f),
                    in.pair(2, 4).transposed(), f);
  Matrix k = matmul(in.pair(2, 6),
                    matrix_hadamard(beta_mat, in.pair(5, 6), f).transposed(),
                    f);
  Matrix b = matmul(matrix_hadamard(in.pair(2, 5), k, f),
                    in.pair(3, 5).transposed(), f);
  Matrix l =
      matmul(in.pair(3, 4), matrix_hadamard(gamma_mat, in.pair(4, 6), f), f);
  Matrix c = matmul(in.pair(1, 6),
                    matrix_hadamard(in.pair(3, 6), l, f).transposed(), f);
  Matrix q = matmul(matrix_hadamard(in.pair(1, 3), c, f),
                    matrix_hadamard(in.pair(2, 3), b, f).transposed(), f);
  return matrix_dot(matrix_hadamard(in.pair(1, 2), a, f), q, f);
}

u64 form62_new_circuit_range(const Form62Input& in,
                             const TrilinearDecomposition& dec, unsigned t,
                             u64 r_begin, u64 r_end, const PrimeField& f) {
  const u64 n = ipow(dec.n0, t);
  if (in.size() != n) {
    throw std::invalid_argument("form62_new_circuit: size != n0^t");
  }
  u64 total = 0;
  Matrix alpha_mat(n, n), beta_mat(n, n), gamma_mat(n, n);
  for (u64 r = r_begin; r < r_end; ++r) {
    // Materialize the rank-r coefficient matrices (O(N^2) space).
    for (u64 d = 0; d < n; ++d) {
      for (u64 e = 0; e < n; ++e) {
        alpha_mat.at(d, e) = dec.alpha_power(d, e, r, t, f);
        beta_mat.at(d, e) = dec.beta_power(d, e, r, t, f);
        gamma_mat.at(d, e) = dec.gamma_power(d, e, r, t, f);
      }
    }
    total = f.add(total,
                  form62_circuit_term(in, alpha_mat, beta_mat, gamma_mat, f));
  }
  return total;
}

u64 form62_new_circuit(const Form62Input& in,
                       const TrilinearDecomposition& dec, unsigned t,
                       const PrimeField& f) {
  return form62_new_circuit_range(in, dec, t, 0, ipow(dec.rank, t), f);
}

}  // namespace camelot
