#include "core/erasure_stream.hpp"

#include <stdexcept>
#include <utility>

#include "core/rng.hpp"
#include "obs/trace.hpp"

namespace camelot {

LossPlan LossPlan::make(std::size_t length, double rate, u64 seed) {
  LossPlan plan;
  plan.dropped.assign(length, false);
  if (rate <= 0.0) return plan;
  // Threshold comparison on the top 53 bits of a per-position
  // splitmix64 draw: uniform in [0, 1) with enough resolution for any
  // plausible loss rate, and trivially position-order independent.
  const double norm = 1.0 / 9007199254740992.0;  // 2^-53
  for (std::size_t i = 0; i < length; ++i) {
    const u64 h = splitmix64(seed + static_cast<u64>(i));
    if (static_cast<double>(h >> 11) * norm < rate) {
      plan.dropped[i] = true;
      ++plan.drop_count;
    }
  }
  return plan;
}

namespace {

// Thins every pushed chunk by the current round's LossPlan, forwarding
// the surviving maximal runs to the inner stream (which corrupts or
// queues them). poll/close/exhausted delegate: once a position is
// dropped it simply never reaches the inner queue this round.
class ErasureStream final : public SymbolStream {
 public:
  ErasureStream(std::unique_ptr<SymbolStream> inner, const StreamSpec& spec,
                const LossSpec& loss)
      : inner_(std::move(inner)),
        length_(spec.code_length),
        rate_(loss.symbol_loss_rate),
        // Mix the channel-level loss seed with the per-(seed, prime,
        // stage) stream seed so distinct primes lose independently.
        loss_seed_(splitmix64(spec.stream_seed ^ splitmix64(loss.seed))),
        prime_(spec.prime),
        plan_(LossPlan::make(length_, rate_, splitmix64(loss_seed_))) {
    CAMELOT_TRACE_MSG(obs::kTraceStream,
                      "stream erase prime=%llu round=0 drops=%zu",
                      static_cast<unsigned long long>(prime_),
                      plan_.drop_count);
  }

  void push(SymbolChunk chunk) override {
    if (chunk.offset + chunk.symbols.size() > length_) {
      throw std::logic_error("ErasureStream::push: chunk out of range");
    }
    // Forward each maximal surviving run as its own chunk; dropped
    // positions vanish here, before the inner stream ever sees them.
    std::size_t run_start = 0;
    const std::size_t n = chunk.symbols.size();
    for (std::size_t j = 0; j <= n; ++j) {
      const bool cut = j == n || plan_.drops(chunk.offset + j);
      if (!cut) continue;
      if (j > run_start) {
        SymbolChunk out;
        out.offset = chunk.offset + run_start;
        out.node = chunk.node;
        out.symbols.assign(
            chunk.symbols.begin() + static_cast<long>(run_start),
            chunk.symbols.begin() + static_cast<long>(j));
        inner_->push(std::move(out));
      }
      run_start = j + 1;
    }
  }

  void close() override { inner_->close(); }
  std::optional<SymbolChunk> poll() override { return inner_->poll(); }
  bool exhausted() override { return inner_->exhausted(); }

  bool reopen_for_repair(std::size_t round) override {
    if (!inner_->reopen_for_repair(round)) return false;
    // Fresh positional schedule per round: a position lost in round r
    // survives round r+1 with probability 1 - rate, so repair
    // converges geometrically (the budget caps the tail).
    plan_ = LossPlan::make(length_, rate_,
                           splitmix64(loss_seed_ + static_cast<u64>(round)));
    CAMELOT_TRACE_MSG(obs::kTraceStream,
                      "stream erase prime=%llu round=%zu drops=%zu",
                      static_cast<unsigned long long>(prime_), round,
                      plan_.drop_count);
    return true;
  }

 private:
  std::unique_ptr<SymbolStream> inner_;
  std::size_t length_;
  double rate_;
  u64 loss_seed_;
  u64 prime_;
  LossPlan plan_;
};

}  // namespace

ErasureStreamingChannel::ErasureStreamingChannel(
    LossSpec loss, const StreamingSymbolChannel* inner)
    : loss_(loss), inner_(inner) {
  if (loss_.symbol_loss_rate < 0.0 || loss_.symbol_loss_rate > 1.0) {
    throw std::invalid_argument(
        "ErasureStreamingChannel: loss rate must be in [0, 1]");
  }
}

std::unique_ptr<SymbolStream> ErasureStreamingChannel::open(
    const StreamSpec& spec) const {
  static const LosslessStreamingChannel kLossless;
  const StreamingSymbolChannel& inner = inner_ != nullptr ? *inner_ : kLossless;
  return std::make_unique<ErasureStream>(inner.open(spec), spec, loss_);
}

ChannelStack::ChannelStack(std::shared_ptr<const ByzantineAdversary> adversary,
                           LossSpec loss)
    : adversary_(std::move(adversary)) {
  if (adversary_ != nullptr) {
    base_ = std::make_unique<AdversarialStreamingChannel>(*adversary_);
  } else {
    base_ = std::make_unique<LosslessStreamingChannel>();
  }
  if (loss.symbol_loss_rate > 0.0) {
    erasure_ = std::make_unique<ErasureStreamingChannel>(loss, base_.get());
  }
}

}  // namespace camelot
