// Byzantine adversary models (paper §1.2: "robust against adversarial
// byzantine failures at the nodes", Morgana's "cunning dark magic").
//
// A corrupt node may deviate arbitrarily; we model the standard
// behaviours seen in fault-injection studies. Corruption acts on the
// symbols a node broadcasts — the framework's only trust boundary.
#pragma once

#include <random>
#include <span>
#include <vector>

#include "field/field.hpp"

namespace camelot {

enum class ByzantineStrategy {
  // Node broadcasts nothing; receivers substitute 0 for its symbols.
  kSilent,
  // Node broadcasts uniformly random field elements.
  kRandom,
  // Node broadcasts values off by one — the subtlest corruption a
  // magnitude-based sanity check would miss.
  kOffByOne,
  // All corrupt nodes broadcast evaluations of a *common wrong*
  // low-degree polynomial: a colluding adversary trying to drag the
  // decoder toward a different codeword.
  kColludingPolynomial,
};

// Positional corruption schedule: the exact per-symbol rewrites the
// adversary performs, laid out by codeword index. Because the
// adversary's RNG draws depend only on (owners, strategy, seed) —
// never on the honest symbol values — the whole schedule can be fixed
// before any symbol exists. A streaming transport uses this to
// corrupt chunks in whatever order nodes finish, and the result is
// the same as applying the plan to the whole word at once.
struct CorruptionPlan {
  enum class Op : unsigned char {
    kKeep = 0,    // honest symbol passes through
    kSet = 1,     // replace with the precomputed value
    kAddOne = 2,  // off-by-one rewrite of the honest value
  };
  std::vector<Op> ops;      // one per codeword position
  std::vector<u64> values;  // replacement where ops[i] == kSet

  // Rewrites chunk[j] (position offset + j) in place.
  void apply(std::span<u64> chunk, std::size_t offset,
             const PrimeField& f) const;
};

// Deterministic adversary controlling a fixed set of nodes.
class ByzantineAdversary {
 public:
  ByzantineAdversary(std::vector<std::size_t> corrupt_nodes,
                     ByzantineStrategy strategy, u64 seed);

  const std::vector<std::size_t>& corrupt_nodes() const noexcept {
    return corrupt_nodes_;
  }
  ByzantineStrategy strategy() const noexcept { return strategy_; }

  // The corruption schedule for a codeword whose symbol i was
  // produced by node owners[i] at evaluation point points[i] (needed by
  // the colluding strategy). Randomness is drawn from the adversary
  // seed alone — every call yields the same plan.
  CorruptionPlan make_plan(std::span<const std::size_t> owners,
                           std::span<const u64> points,
                           const PrimeField& f) const;
  // Same, but mixes `stream` (a derive_stream(seed, prime, stage)
  // value in the staged pipeline) into the adversary seed, so
  // corruption differs per prime yet stays deterministic regardless
  // of threading.
  CorruptionPlan make_plan(std::span<const std::size_t> owners,
                           std::span<const u64> points, const PrimeField& f,
                           u64 stream) const;

  // True if `node` is controlled by the adversary.
  bool controls(std::size_t node) const;

 private:
  CorruptionPlan plan_with_rng_seed(std::span<const std::size_t> owners,
                                    std::span<const u64> points,
                                    const PrimeField& f, u64 rng_seed) const;

  std::vector<std::size_t> corrupt_nodes_;
  ByzantineStrategy strategy_;
  u64 seed_;
};

}  // namespace camelot
