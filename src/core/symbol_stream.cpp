#include "core/symbol_stream.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/trace.hpp"

namespace camelot {

namespace {

// Mutex-guarded FIFO of chunks shared by the lossless and adversarial
// streams (which differ only in a per-push rewrite).
class QueueStream : public SymbolStream {
 public:
  explicit QueueStream(const StreamSpec& spec) : spec_(spec) {
    CAMELOT_TRACE_MSG(obs::kTraceStream,
                      "stream open prime=%llu e=%zu",
                      static_cast<unsigned long long>(spec_.prime),
                      spec_.code_length);
  }

  void push(SymbolChunk chunk) override {
    if (chunk.offset > spec_.code_length ||
        chunk.symbols.size() > spec_.code_length - chunk.offset) {
      throw std::logic_error("SymbolStream::push: chunk out of range");
    }
    CAMELOT_TRACE_MSG(obs::kTraceStream,
                      "stream push prime=%llu node=%zu offset=%zu n=%zu",
                      static_cast<unsigned long long>(spec_.prime),
                      chunk.node, chunk.offset, chunk.symbols.size());
    transform(chunk);
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) {
      throw std::logic_error("SymbolStream::push: stream is closed");
    }
    queue_.push_back(std::move(chunk));
  }

  void close() override {
    CAMELOT_TRACE_MSG(obs::kTraceStream, "stream close prime=%llu",
                      static_cast<unsigned long long>(spec_.prime));
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = true;
  }

  std::optional<SymbolChunk> poll() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (queue_.empty()) return std::nullopt;
    SymbolChunk chunk = std::move(queue_.front());
    queue_.pop_front();
    return chunk;
  }

  bool exhausted() override {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_ && queue_.empty();
  }

  bool reopen_for_repair(std::size_t round) override {
    CAMELOT_TRACE_MSG(obs::kTraceStream,
                      "stream reopen prime=%llu round=%zu",
                      static_cast<unsigned long long>(spec_.prime), round);
    std::lock_guard<std::mutex> lock(mu_);
    closed_ = false;
    return true;
  }

 protected:
  // Applied to each chunk before it becomes deliverable.
  virtual void transform(SymbolChunk& chunk) { (void)chunk; }

  const StreamSpec spec_;

 private:
  std::mutex mu_;
  std::deque<SymbolChunk> queue_;
  bool closed_ = false;
};

class AdversarialStream final : public QueueStream {
 public:
  AdversarialStream(const StreamSpec& spec, const ByzantineAdversary& adv)
      : QueueStream(spec),
        plan_(adv.make_plan(spec.owners, spec.points, *spec.field,
                            spec.stream_seed)) {}

 protected:
  void transform(SymbolChunk& chunk) override {
    plan_.apply(chunk.symbols, chunk.offset, *spec_.field);
  }

 private:
  CorruptionPlan plan_;
};

class RateLimitedStream final : public SymbolStream {
 public:
  RateLimitedStream(std::unique_ptr<SymbolStream> inner, std::size_t budget)
      : inner_(std::move(inner)), budget_(budget) {}

  void push(SymbolChunk chunk) override { inner_->push(std::move(chunk)); }
  void close() override { inner_->close(); }

  std::optional<SymbolChunk> poll() override {
    std::lock_guard<std::mutex> lock(mu_);
    if (!partial_.has_value()) {
      partial_ = inner_->poll();
      if (!partial_.has_value()) return std::nullopt;
    }
    SymbolChunk& held = *partial_;
    if (held.symbols.size() <= budget_) {
      SymbolChunk out = std::move(held);
      partial_.reset();
      return out;
    }
    // Release the first `budget_` symbols; keep the rest for the next
    // round.
    SymbolChunk out;
    out.offset = held.offset;
    out.node = held.node;
    out.symbols.assign(held.symbols.begin(),
                       held.symbols.begin() + static_cast<long>(budget_));
    held.symbols.erase(held.symbols.begin(),
                       held.symbols.begin() + static_cast<long>(budget_));
    held.offset += budget_;
    return out;
  }

  bool exhausted() override {
    std::lock_guard<std::mutex> lock(mu_);
    return !partial_.has_value() && inner_->exhausted();
  }

  bool reopen_for_repair(std::size_t round) override {
    return inner_->reopen_for_repair(round);
  }

 private:
  std::unique_ptr<SymbolStream> inner_;
  std::size_t budget_;
  std::mutex mu_;
  std::optional<SymbolChunk> partial_;  // split chunk awaiting release
};

}  // namespace

std::unique_ptr<SymbolStream> LosslessStreamingChannel::open(
    const StreamSpec& spec) const {
  return std::make_unique<QueueStream>(spec);
}

std::unique_ptr<SymbolStream> AdversarialStreamingChannel::open(
    const StreamSpec& spec) const {
  return std::make_unique<AdversarialStream>(spec, adversary_);
}

RateLimitedStreamingChannel::RateLimitedStreamingChannel(
    std::size_t symbols_per_poll, const StreamingSymbolChannel* inner)
    : symbols_per_poll_(symbols_per_poll), inner_(inner) {
  if (symbols_per_poll_ == 0) {
    throw std::invalid_argument(
        "RateLimitedStreamingChannel: need a positive per-poll budget");
  }
}

std::unique_ptr<SymbolStream> RateLimitedStreamingChannel::open(
    const StreamSpec& spec) const {
  static const LosslessStreamingChannel kLossless;
  const StreamingSymbolChannel& inner = inner_ != nullptr ? *inner_ : kLossless;
  return std::make_unique<RateLimitedStream>(inner.open(spec),
                                             symbols_per_poll_);
}

}  // namespace camelot
