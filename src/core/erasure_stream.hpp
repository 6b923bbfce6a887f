// Lossy (erasure-mode) streaming transport with selective repair.
//
// A SymbolStream so far could corrupt symbols but never lose them; an
// ErasureStreamingChannel models the other half of a hostile network:
// chunks pushed into the stream are thinned by a seeded LossPlan, so
// the consumer's decoder comes up short and must ask the owners to
// re-prepare exactly the missing positions. The loss schedule is
// *positional* — a pure function of (StreamSpec::stream_seed,
// LossSpec::seed, repair round), never of chunk boundaries or arrival
// order — which keeps the determinism contract of symbol_stream.hpp:
// what round r ultimately delivers is a fixed subset of the codeword
// positions, regardless of scheduling.
//
// Composability: the erasure stream wraps an inner channel (lossless
// when nullptr), so loss composes with the adversarial corruption
// plans for mixed loss+corruption rounds. The inner corrupting stream
// keeps one positional CorruptionPlan across repair rounds, so a
// symbol repaired in round 3 carries exactly the value its round-0
// delivery would have — repaired runs stay bit-identical to lossless
// ones.
//
// Repair flows through SymbolStream::reopen_for_repair: the session
// re-arms the closed stream for round r, the erasure stream installs
// the round-r LossPlan (re-seeded per round, so a lost position is
// not deterministically lost forever), and the re-pushed chunks run
// the same gauntlet.
#pragma once

#include <cstddef>
#include <memory>
#include <stdexcept>

#include "core/byzantine.hpp"
#include "core/symbol_stream.hpp"

namespace camelot {

// Per-channel loss parameters. `symbol_loss_rate` is the marginal
// probability that a codeword position is dropped in one delivery
// round; `seed` decorrelates the loss schedule from every other
// randomness stream (it is mixed with the per-prime stream_seed, so
// distinct primes lose different positions).
struct LossSpec {
  double symbol_loss_rate = 0.0;  // in [0, 1]
  u64 seed = 0;
};

// Positional drop schedule for one delivery round of one prime's
// broadcast: dropped[i] says whether codeword position i is lost when
// its chunk passes through the stream this round. Fixed before any
// symbol exists, exactly like CorruptionPlan.
struct LossPlan {
  std::vector<bool> dropped;
  std::size_t drop_count = 0;

  // Throws std::out_of_range for a position past the plan.
  bool drops(std::size_t position) const {
    if (position >= dropped.size()) {
      throw std::out_of_range("LossPlan::drops: position outside the plan");
    }
    return dropped[position];
  }

  // Bernoulli(rate) per position, derived from splitmix64(seed, i).
  static LossPlan make(std::size_t length, double rate, u64 seed);
};

// Factory for erasure-mode streams. Wraps `inner` (lossless when
// nullptr) for the symbol values, so loss composes with corruption
// and rate limiting. Non-owning: `inner` must outlive the channel.
class ErasureStreamingChannel final : public StreamingSymbolChannel {
 public:
  explicit ErasureStreamingChannel(
      LossSpec loss, const StreamingSymbolChannel* inner = nullptr);

  std::unique_ptr<SymbolStream> open(const StreamSpec& spec) const override;

 private:
  LossSpec loss_;
  const StreamingSymbolChannel* inner_;
};

// The transport a job describes, owned in one piece: adversarial
// corruption when `adversary` is non-null (lossless otherwise), under
// an erasure layer when loss.symbol_loss_rate > 0. ProofService and
// the shard worker build their jobs' channels through this, so both
// compose the stack identically. A loss rate outside [0, 1], NaN
// included, throws std::invalid_argument.
class ChannelStack {
 public:
  ChannelStack(std::shared_ptr<const ByzantineAdversary> adversary,
               LossSpec loss);

  // The outermost channel — what the session streams through.
  const StreamingSymbolChannel& top() const {
    return erasure_ ? *erasure_ : *base_;
  }

 private:
  std::shared_ptr<const ByzantineAdversary> adversary_;
  std::unique_ptr<StreamingSymbolChannel> base_;
  std::unique_ptr<StreamingSymbolChannel> erasure_;
};

}  // namespace camelot
