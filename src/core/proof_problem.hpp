// The Camelot problem interface (paper §1.3).
//
// "To design a Camelot algorithm, all it takes is to come up with the
// proof polynomial P and a fast evaluation algorithm for P" (§1.6).
// A CamelotProblem supplies exactly those two ingredients plus the
// bookkeeping the framework needs (degree bound, modulus constraints,
// answer bounds for CRT reconstruction, and the map from a decoded
// proof back to the integer answers).
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "field/bigint.hpp"
#include "field/field.hpp"
#include "field/field_ops.hpp"
#include "poly/poly.hpp"

namespace camelot {

// Static parameters of a proof polynomial, computable from the common
// input by every node (paper: "we assume that each node can easily
// compute an upper bound for d from the common input").
struct ProofSpec {
  // Upper bound on deg P.
  u64 degree_bound = 0;
  // Every proof modulus q must satisfy q >= min_modulus (e.g. 3R+1 for
  // the clique proof of §5.2, so that the points 1..R are usable).
  u64 min_modulus = 2;
  // Number of integers the proof encodes (1 for a single count; n for
  // the per-row counts of orthogonal vectors, etc.).
  std::size_t answer_count = 1;
  // |answer_i| <= answer_bound; drives how many CRT primes are needed.
  BigInt answer_bound = BigInt::from_u64(1);
  // Whether answers can be negative (signed CRT reconstruction).
  bool answers_signed = false;
};

// A node's view of the proof polynomial over one prime field: an
// oracle for P(x0) mod q. Construction may perform the per-node
// precomputation the paper charges to each node's budget.
//
// The constructor takes a FieldOps backend handle; `field_` keeps the
// canonical-representative view as a by-value member (registers in
// the hot loops), and `ops()` exposes the shared Montgomery context
// for evaluators that run domain pipelines (count/*). A bare
// PrimeField converts implicitly (building a private context) so
// stand-alone evaluators stay easy to construct in tests.
class Evaluator {
 public:
  explicit Evaluator(const FieldOps& f) : ops_(f), field_(f.prime()) {}
  virtual ~Evaluator() = default;

  Evaluator(const Evaluator&) = delete;
  Evaluator& operator=(const Evaluator&) = delete;

  // Evaluates the proof polynomial at x0 (the node's one unit of work;
  // also exactly the verifier's algorithm, eq. (2) left-hand side).
  virtual u64 eval(u64 x0) = 0;

  // Evaluates the proof polynomial at every point of xs — the whole
  // contiguous chunk a simulated node owns, issued as one call. The
  // default simply loops the scalar method; problem implementations
  // override it to amortize point-independent work (Lagrange factorial
  // caches, Montgomery boundary conversions, shared basis vectors)
  // across the batch.
  virtual std::vector<u64> evaluate_points(std::span<const u64> xs) {
    std::vector<u64> out(xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) out[i] = eval(xs[i]);
    return out;
  }

  const PrimeField& field() const noexcept { return field_; }
  const FieldOps& ops() const noexcept { return ops_; }

 protected:
  FieldOps ops_;
  PrimeField field_;
};

// Points per block for evaluators that walk their chunk a block at a
// time with the point index innermost (count/form62_block.hpp, the
// triangle evaluator), so each lane call covers the whole block. A
// chunk's last block takes whatever is left, so a lone point costs one
// point. Widths 8 to 64 measured the same on the triangle workload.
inline constexpr std::size_t kPointBlock = 16;

// A problem expressible in the Camelot framework.
class CamelotProblem {
 public:
  virtual ~CamelotProblem() = default;

  virtual std::string name() const = 0;
  virtual ProofSpec spec() const = 0;

  // Builds the per-node evaluation algorithm for the field backend f
  // (Montgomery by default; sessions pass cache-shared handles).
  virtual std::unique_ptr<Evaluator> make_evaluator(
      const FieldOps& f) const = 0;

  // Maps a decoded proof (coefficients of P mod q) to the residues of
  // the integer answers modulo q. Must return spec().answer_count
  // values. Called once per CRT prime; the framework combines.
  virtual std::vector<u64> recover(const Poly& proof,
                                   const FieldOps& f) const = 0;
};

}  // namespace camelot
