// Fast multipoint evaluation and interpolation via subproduct trees
// (paper §2.2: both maps in O(d log^2 d) field operations).
//
// The one-shot calls here serve range_evaluate (the OV, Hamming and
// Convolution3SUM recovers) and the interpolations of CSP2 and the
// chromatic polynomial. Reed--Solomon coding does not use them: its
// points form a power-of-two subgroup, where both maps are NTTs
// (rs/reed_solomon.hpp).
//
// Each call builds its tree, walks it once and drops it. The tree
// keeps its node polynomials in the Montgomery domain and runs on the
// handle's resolved lane backend (bit-identical values on every
// backend), with the handle's cached twiddle tables when it carries
// them. The descent divides by a node with a Newton-inverse division
// (poly/fast_div.hpp) when fastdiv_pays() holds for the node's degree
// and the quotient length, and by lane-wide schoolbook elimination
// otherwise; both compute the same words.
#pragma once

#include <span>
#include <vector>

#include "field/field_ops.hpp"
#include "poly/poly.hpp"

namespace camelot {

// p(x_0), ..., p(x_{n-1}) as canonical residues. Throws
// std::invalid_argument when xs is empty.
std::vector<u64> multipoint_evaluate(const Poly& p, std::span<const u64> xs,
                                     const FieldOps& f);

// The unique polynomial of degree < n with P(x_i) = ys[i]; the points
// must be distinct mod q. Throws std::invalid_argument when xs is
// empty or the sizes differ.
Poly interpolate(std::span<const u64> xs, std::span<const u64> ys,
                 const FieldOps& f);

// ---- Recovery kernels ----------------------------------------------------
// Nearly every CamelotProblem::recover either sums the decoded proof
// over a run of consecutive integers (Theorem 13: X(6,2) =
// sum_{r=1}^{R} P(r)) or reads it at one. Both kernels run on the
// handle's resolved backend and return canonical residues; an empty
// range (hi < lo) sums to zero and reads nothing.

// Power sums S_k = sum_{r=lo}^{hi} r^k mod q for k < n (0^0 = 1), as
// the power series (hi-lo+1) - x D'(x)/D(x) with D(x) = prod (1 - r x):
// one balanced product of the linear factors, one Newton inverse and
// one low product, O(N log^2 N + n log n) for N = hi-lo+1 points. No
// step divides by k, so it holds in any characteristic, for lo = 0 and
// for ranges longer than q.
std::vector<u64> range_power_sums(u64 lo, u64 hi, std::size_t n,
                                  const FieldOps& f);

// sum_{r=lo}^{hi} p(r) mod q: the dot product of p's coefficients
// with range_power_sums(lo, hi, p.c.size(), f).
u64 range_sum(const Poly& p, u64 lo, u64 hi, const FieldOps& f);

// p(lo), p(lo+1), ..., p(hi): multipoint_evaluate on the range.
std::vector<u64> range_evaluate(const Poly& p, u64 lo, u64 hi,
                                const FieldOps& f);

}  // namespace camelot
