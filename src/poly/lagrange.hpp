// Lagrange interpolation over consecutive integer nodes — the
// "factorial trick" of paper §5.3 / §3.3:
//
//   Lambda_r(x0) = Gamma(x0) / ((-1)^{R-r} F_{r-1} F_{R-r} (x0 - r)),
//   Gamma(x0) = prod_{j=1}^{R} (x0 - j),  F_j = j!.
//
// computes all R Lagrange basis values at a point in O(R) operations,
// which is what lets a Camelot node expand interpolated tensor
// coefficients (eq. (14)) or outer-loop selectors (eq. (6)) cheaply.
//
// ConsecutiveLagrange precomputes everything that does not depend on
// the evaluation point (the factorial products and their inverses, in
// the Montgomery domain) once; each subsequent basis query is then a
// single O(R) prefix/suffix product sweep with *no* field inversion.
// Batched proof evaluation (count/*) amortizes the precomputation
// across a node's whole chunk of points, and basis_mont_block runs
// both chains of a block of points in one register-resident sweep.
#pragma once

#include <span>
#include <vector>

#include "field/field_ops.hpp"
#include "field/montgomery.hpp"

namespace camelot {

class ConsecutiveLagrange {
 public:
  // Prepares the basis for the nodes start, start+1, ..,
  // start+count-1 (as field elements). Requires 0 < count < q so the
  // nodes are distinct mod q. Takes the backend handle (a bare
  // PrimeField converts implicitly); the cache shares the handle's
  // Montgomery context instead of rebuilding one per evaluator.
  ConsecutiveLagrange(u64 start, std::size_t count, const FieldOps& f);

  std::size_t count() const noexcept { return count_; }
  const MontgomeryField& mont() const noexcept { return m_; }

  // Basis values L_i(x0) in the Montgomery domain, i = 0..count-1.
  // L_i is 1 at node start+i and 0 at the other nodes. Works for any
  // x0 (including x0 equal to one of the nodes).
  std::vector<u64> basis_mont(u64 x0) const;

  // Same values as canonical representatives.
  std::vector<u64> basis(u64 x0) const;

  // basis_mont for a block of points at once, point index innermost:
  // L_i(xs[b]) at i * xs.size() + b, the same words as basis_mont(xs[b]).
  // On a lane backend it is one sweep (MontgomeryLaneField::
  // lagrange_block): the prefix and suffix product chains start from
  // both ends of the nodes with the lanes across the points, their
  // running products in registers; the chain that reaches a row first
  // stores its product times the inverse weight, the second finishes
  // it. Four multiplies per node and point, each row stored twice and
  // read once. Node hits need no special case:
  // prod_{j != i}(node_i - node_j) * inv_w_i is 1. The scalar backends
  // run the same chains one after the other, rows outermost.
  std::vector<u64> basis_mont_block(std::span<const u64> xs) const;
  // The same into `out`, resized to count() * xs.size(); a caller that
  // keeps `out` across blocks reuses its storage.
  void basis_mont_block(std::span<const u64> xs, std::vector<u64>& out) const;

  // Value at x0 of the unique degree-<count interpolant through
  // (start+i, values[i]), canonical in/out. O(count).
  u64 eval(std::span<const u64> values, u64 x0) const;

 private:
  MontgomeryField m_;
  u64 start_;        // canonical representative of the first node
  std::size_t count_;
  FieldBackend backend_;  // resolved lane backend at build time
  // True when backend_ names a lane-wide (AVX2 or AVX-512) pipeline.
  bool lanes() const noexcept {
    return backend_ == FieldBackend::kMontgomeryAvx2 ||
           backend_ == FieldBackend::kMontgomeryAvx512;
  }
  // Montgomery-domain inverses of the point-independent denominator
  // parts (-1)^{count-1-i} * i! * (count-1-i)!.
  std::vector<u64> inv_w_;
  // Montgomery form of the nodes start..start+count-1.
  std::vector<u64> nodes_mont_;
};

// One-shot wrappers (build the cache, query once).
std::vector<u64> lagrange_basis_consecutive(u64 start, std::size_t count,
                                            u64 x0, const PrimeField& f);
u64 lagrange_eval_consecutive(u64 start, std::span<const u64> values, u64 x0,
                              const PrimeField& f);

}  // namespace camelot
