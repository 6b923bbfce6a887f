#include "core/byzantine.hpp"

#include <algorithm>

#include "core/rng.hpp"

namespace camelot {

ByzantineAdversary::ByzantineAdversary(std::vector<std::size_t> corrupt_nodes,
                                       ByzantineStrategy strategy, u64 seed)
    : corrupt_nodes_(std::move(corrupt_nodes)),
      strategy_(strategy),
      seed_(seed) {
  std::sort(corrupt_nodes_.begin(), corrupt_nodes_.end());
  corrupt_nodes_.erase(
      std::unique(corrupt_nodes_.begin(), corrupt_nodes_.end()),
      corrupt_nodes_.end());
}

bool ByzantineAdversary::controls(std::size_t node) const {
  return std::binary_search(corrupt_nodes_.begin(), corrupt_nodes_.end(),
                            node);
}

void CorruptionPlan::apply(std::span<u64> chunk, std::size_t offset,
                           const PrimeField& f) const {
  for (std::size_t j = 0; j < chunk.size(); ++j) {
    const std::size_t i = offset + j;
    switch (ops[i]) {
      case Op::kKeep:
        break;
      case Op::kSet:
        chunk[j] = values[i];
        break;
      case Op::kAddOne:
        chunk[j] = f.add(chunk[j], 1);
        break;
    }
  }
}

CorruptionPlan ByzantineAdversary::make_plan(
    std::span<const std::size_t> owners, std::span<const u64> points,
    const PrimeField& f) const {
  return plan_with_rng_seed(owners, points, f, seed_);
}

CorruptionPlan ByzantineAdversary::make_plan(
    std::span<const std::size_t> owners, std::span<const u64> points,
    const PrimeField& f, u64 stream) const {
  return plan_with_rng_seed(owners, points, f, splitmix64(seed_ ^ stream));
}

CorruptionPlan ByzantineAdversary::plan_with_rng_seed(
    std::span<const std::size_t> owners, std::span<const u64> points,
    const PrimeField& f, u64 rng_seed) const {
  CorruptionPlan plan;
  plan.ops.assign(owners.size(), CorruptionPlan::Op::kKeep);
  plan.values.assign(owners.size(), 0);
  std::mt19937_64 rng(rng_seed);
  // Colluding adversary: fixed wrong polynomial of degree 2 shared by
  // all corrupt nodes (coefficients derived from the seed only, so the
  // corruption is consistent across nodes as a real collusion is).
  const u64 c0 = 1 + rng() % (f.modulus() - 1);
  const u64 c1 = rng() % f.modulus();
  const u64 c2 = rng() % f.modulus();
  // The draw order below scans positions ascending, so a plan's values
  // are fixed bit for bit no matter which chunk order they are later
  // applied in.
  for (std::size_t i = 0; i < owners.size(); ++i) {
    if (!controls(owners[i])) continue;
    switch (strategy_) {
      case ByzantineStrategy::kSilent:
        plan.ops[i] = CorruptionPlan::Op::kSet;
        plan.values[i] = 0;
        break;
      case ByzantineStrategy::kRandom:
        plan.ops[i] = CorruptionPlan::Op::kSet;
        plan.values[i] = rng() % f.modulus();
        break;
      case ByzantineStrategy::kOffByOne:
        plan.ops[i] = CorruptionPlan::Op::kAddOne;
        break;
      case ByzantineStrategy::kColludingPolynomial: {
        const u64 x = points[i];
        plan.ops[i] = CorruptionPlan::Op::kSet;
        plan.values[i] = f.add(c0, f.mul(x, f.add(c1, f.mul(x, c2))));
        break;
      }
    }
  }
  return plan;
}

}  // namespace camelot
