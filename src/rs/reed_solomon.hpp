// Nonsystematic Reed--Solomon codes over Z_q (paper §2.3).
//
// A message (p_0,...,p_d) is the coefficient vector of the proof
// polynomial P; the codeword is (P(x_0),...,P(x_{e-1})) for e distinct
// evaluation points. In the Camelot template the *community computes
// the codeword directly* (each node evaluates P at its assigned
// points), so "encoding" here exists for testing, for the systematic
// parity extension and for re-encoding a decoded proof to locate
// errors.
//
// The points are the powers of a root of unity: position i carries
// x_i = w^i, where n = bit_ceil(e) and w = g^((q-1)/n) for the field's
// generator g (PrimeField::root_of_unity, the root the NTT kernels
// use). Every map between a word and a polynomial is then a few
// length-n NTTs:
//   * evaluation: fold the coefficients mod x^n - 1, one forward NTT,
//     keep the first e values;
//   * interpolation through a position prefix M = [0, s): Lagrange at
//     a missing position k is
//       P(w^k) = Z_M(w^k) * w^(-k) * sum_{i in M} c_i * h(i - k),
//     with h(t) = 1/(1 - w^t), h(0) = 0 and c_i = y_i / Z_M'(w^i). The
//     sum is one cyclic correlation (two NTTs). Both factors come from
//     the complement Mbar of M in the subgroup, since
//     Z_M * Z_Mbar = x^n - 1:
//       Z_M'(w^i) = n * w^(-i) / Z_Mbar(w^i)   for i in M,
//       Z_M(w^k)  = n * w^(-k) / Z_Mbar'(w^k)  for k in Mbar.
//     One inverse NTT of the completed n values gives the coefficients.
// The code interpolates through two fixed prefixes: the whole word
// (the decoder) and the message prefix [0, d+1) (the systematic
// extension). Their factors, the transform of h and Gao's G0 are all
// built in the constructor; afterwards the code is deep-const, so one
// instance can be shared by concurrent decoders.
#pragma once

#include <span>
#include <vector>

#include "field/field_ops.hpp"
#include "poly/poly.hpp"

namespace camelot {

// Code of length e and dimension d+1 over Z_q at the points w^i.
// Unique decoding radius: floor((e - d - 1) / 2) symbol errors.
//
// The code holds a FieldOps backend handle and runs its transforms on
// it (Montgomery domain by default, canonical representatives under
// FieldBackend::kPrimeDivision). The public encode/evaluate/
// interpolate surface is canonical-in/canonical-out; the decoder goes
// through the *_domain seam.
class ReedSolomonCode {
 public:
  // Throws std::invalid_argument unless 1 <= d+1 <= e and Z_q has a
  // primitive bit_ceil(e)-th root of unity (bit_ceil(e) divides q-1;
  // the prime planner only emits such primes). A bare PrimeField
  // converts implicitly to a default Montgomery handle.
  ReedSolomonCode(const FieldOps& f, std::size_t degree_bound,
                  std::size_t length);

  const FieldOps& ops() const noexcept { return ops_; }
  const PrimeField& field() const noexcept { return ops_.prime(); }
  std::size_t length() const noexcept { return points_.size(); }
  std::size_t degree_bound() const noexcept { return degree_bound_; }
  // x_i = w^i as canonical representatives.
  const std::vector<u64>& points() const noexcept { return points_; }
  std::size_t decoding_radius() const noexcept {
    return (points_.size() - degree_bound_ - 1) / 2;
  }

  // Batch evaluation of the message polynomial at all points.
  std::vector<u64> encode(const Poly& message) const;

  // Systematic encoding: the codeword whose first d+1 positions carry
  // the message symbols verbatim (canonical representatives) and whose
  // remaining e-d-1 positions carry the parity extension — the unique
  // degree-<=d interpolant through the message positions, evaluated at
  // the rest (two NTTs through the message-prefix factors).
  std::vector<u64> encode_systematic(
      std::span<const u64> message_symbols) const;

  // Values of an arbitrary polynomial at all points.
  std::vector<u64> evaluate_at_points(const Poly& p) const;

  // Interpolates through all points (degree < e); used by the decoder.
  Poly interpolate_received(std::span<const u64> received) const;

  // The decoder's seam, in the backend's value domain (Montgomery for
  // the Montgomery backends, canonical under kPrimeDivision).
  Poly interpolate_domain(std::span<const u64> word) const;
  std::vector<u64> evaluate_domain(const Poly& p) const;
  // Gao's G0 = prod_i (x - x_i) = (x^n - 1) / Z_Mbar.
  const Poly& vanishing_domain() const noexcept { return g0_; }

 private:
  // Interpolation factors for the position prefix M = [0, size), in
  // the backend's value domain. Empty when size == n (M is the whole
  // subgroup, so interpolation is one inverse NTT).
  struct Prefix {
    std::size_t size = 0;
    std::vector<u64> weight;  // i < size:  1 / Z_M'(w^i)
    std::vector<u64> outer;   // k >= size: Z_M(w^k) * w^(-k)
  };

  template <class F>
  void build(const F& f, std::size_t length);
  template <class F>
  Prefix make_prefix(const F& f, const std::vector<u64>& powers,
                     std::size_t size, Poly* complement) const;
  // Values at every power w^k, k < n, of the degree-<size interpolant
  // through `values` at the prefix positions (domain in, domain out).
  template <class F>
  std::vector<u64> complete(const F& f, const Prefix& prefix,
                            std::span<const u64> values) const;
  // Length-a.size() transform through the code's tables when they
  // cover it: natural order on both sides (ntt_inplace), or with
  // `spectrum` the bit-reversed pair (the correlation in complete()
  // never needs natural-order values).
  template <class F>
  void transform(std::vector<u64>& a, bool inverse, const F& f,
                 bool spectrum = false) const;

  FieldOps ops_;
  std::size_t degree_bound_;
  std::size_t n_;
  std::vector<u64> points_;
  std::vector<u64> h_hat_;  // bit-reversed spectrum of t -> h(-t), domain
  Prefix word_;
  Prefix message_;
  Poly g0_;
};

}  // namespace camelot
