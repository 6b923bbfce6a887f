#include "core/proof_session.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/arena.hpp"
#include "core/rng.hpp"
#include "core/verifier.hpp"
#include "field/crt.hpp"
#include "obs/trace.hpp"

namespace camelot {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// RAII accumulator: every public stage call adds its elapsed time to
// the session's wall clock. CAS loop instead of fetch_add so the
// atomic<double> accumulation stays portable across libstdc++ levels.
class WallTimer {
 public:
  explicit WallTimer(std::atomic<double>* total)
      : total_(total), t0_(std::chrono::steady_clock::now()) {}
  ~WallTimer() {
    const double dt = seconds_since(t0_);
    double cur = total_->load(std::memory_order_relaxed);
    while (!total_->compare_exchange_weak(cur, cur + dt,
                                          std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double>* total_;
  std::chrono::steady_clock::time_point t0_;
};

// First exception thrown on any pool worker, rethrown on the calling
// thread after the join — a throwing evaluator or stage must reach
// the caller (as the barrier pipeline's calling-thread stages always
// did), never std::terminate a bare worker thread.
class FirstError {
 public:
  void capture() noexcept {
    std::lock_guard<std::mutex> lock(mu_);
    if (err_ == nullptr) err_ = std::current_exception();
    failed_.store(true, std::memory_order_release);
  }
  bool failed() const noexcept {
    return failed_.load(std::memory_order_acquire);
  }
  void rethrow_if_any() {
    if (err_ != nullptr) std::rethrow_exception(err_);
  }

 private:
  std::mutex mu_;
  std::exception_ptr err_;
  std::atomic<bool> failed_{false};
};

}  // namespace

ProofSession::ProofSession(const CamelotProblem& problem, ClusterConfig config,
                           std::shared_ptr<FieldCache> cache,
                           std::shared_ptr<const PrimePlan> plan,
                           std::shared_ptr<CodeCache> codes,
                           std::shared_ptr<obs::Registry> metrics)
    : problem_(problem),
      config_(config),
      spec_(problem.spec()),
      cache_(cache != nullptr ? std::move(cache) : FieldCache::global()),
      codes_(codes != nullptr ? std::move(codes) : CodeCache::global()),
      metrics_(metrics != nullptr ? std::move(metrics)
                                  : obs::Registry::global()) {
  stage_prepare_ = &metrics_->histogram("camelot_stage_prepare_seconds");
  stage_transport_ = &metrics_->histogram("camelot_stage_transport_seconds");
  stage_decode_ = &metrics_->histogram("camelot_stage_decode_seconds");
  stage_verify_ = &metrics_->histogram("camelot_stage_verify_seconds");
  stage_recover_ = &metrics_->histogram("camelot_stage_recover_seconds");
  if (config_.num_nodes == 0) {
    throw std::invalid_argument("ProofSession: need at least one node");
  }
  if (config_.redundancy < 1.0) {
    throw std::invalid_argument("ProofSession: redundancy must be >= 1");
  }
  plan_ = plan != nullptr
              ? std::move(plan)
              : std::make_shared<const PrimePlan>(plan_primes(
                    spec_, config_.redundancy, config_.num_primes));

  const std::size_t e = plan_->code_length;
  owners_.resize(e);
  for (std::size_t j = 0; j < config_.num_nodes; ++j) {
    const auto [lo, hi] = node_chunk(j, e, config_.num_nodes);
    std::fill(owners_.begin() + static_cast<long>(lo),
              owners_.begin() + static_cast<long>(hi), j);
  }
  node_stats_.resize(config_.num_nodes);
  for (std::size_t j = 0; j < config_.num_nodes; ++j) {
    node_stats_[j].node_id = j;
  }

  primes_.reserve(plan_->primes.size());
  for (u64 q : plan_->primes) {
    // Twiddle capacity: tree products peak at ~2e output coefficients.
    primes_.emplace_back(q, cache_->ops(q, 2 * e, config_.backend));
  }
}

ProofSession::PrimeState& ProofSession::state_at(std::size_t prime_index) {
  if (prime_index >= primes_.size()) {
    throw std::out_of_range("ProofSession: prime index out of range");
  }
  return primes_[prime_index];
}

const ProofSession::PrimeState& ProofSession::state_at(
    std::size_t prime_index) const {
  if (prime_index >= primes_.size()) {
    throw std::out_of_range("ProofSession: prime index out of range");
  }
  return primes_[prime_index];
}

const ProofSession::PrimeState& ProofSession::state_at_least(
    std::size_t prime_index, SessionStage min_stage, const char* what) const {
  const PrimeState& st = state_at(prime_index);
  if (st.stage < min_stage) {
    throw std::logic_error(std::string("ProofSession::") + what +
                           ": prime has not reached the required stage");
  }
  return st;
}

void ProofSession::invalidate_downstream(PrimeState& st,
                                         SessionStage new_stage) {
  st.stage = new_stage;
  if (new_stage < SessionStage::kDecoded) {
    st.decoded = GaoResult{};
    st.report.decode_status = DecodeStatus::kDecodeFailure;
    st.report.corrected_symbols.clear();
    st.report.implicated_nodes.clear();
    st.report.decode_quotient_steps = 0;
    st.report.decode_hgcd_calls = 0;
  }
  if (new_stage < SessionStage::kTransported) {
    st.report.repair_rounds = 0;
    st.report.repaired_symbols = 0;
  }
  if (new_stage < SessionStage::kVerified) st.report.verified = false;
  if (new_stage < SessionStage::kRecovered) st.report.answer_residues.clear();
}

void ProofSession::ensure_code(PrimeState& st) {
  if (st.code != nullptr) return;
  // codes_ is never null (CodeCache::global() is the fallback), so
  // every session shares the inverse-enriched trees.
  st.code = codes_->code(st.ops, spec_.degree_bound, plan_->code_length);
}

std::size_t ProofSession::message_prefix() const {
  const std::size_t e = plan_->code_length;
  const std::size_t m = spec_.degree_bound + 1;
  // m == e (rate-1) makes the extension a no-op, so treat it as the
  // plain path; m < e is guaranteed otherwise (d+1 <= e at plan time).
  return (config_.systematic_encode && m < e) ? m : e;
}

std::size_t ProofSession::message_node_count() const {
  const std::size_t m = message_prefix();
  std::size_t count = 0;
  for (std::size_t j = 0; j < config_.num_nodes; ++j) {
    const auto [lo, hi] = node_chunk(j, plan_->code_length, config_.num_nodes);
    if (lo < hi && lo < m) ++count;
  }
  return count;  // >= 1: node 0 always owns symbol 0 < m
}

std::vector<u64> ProofSession::evaluate_node_range(PrimeState& st,
                                                   std::size_t node,
                                                   std::size_t lo,
                                                   std::size_t hi) {
  // First declaration on purpose: every scratch vector the evaluator
  // allocates below must destruct before the scope unbinds the arena.
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  const auto t0 = std::chrono::steady_clock::now();
  // Span granularity: one prepare observation per node chunk — the
  // engine and selective repair both evaluate through here, so the
  // histogram is fed identically on every path.
  obs::StageSpan span(stage_prepare_, obs::kTraceSched, "prepare", st.prime);
  auto evaluator = problem_.make_evaluator(st.ops);
  // One batched call for the whole range so the evaluator can
  // amortize its point-independent work.
  const std::span<const u64> chunk(st.code->points().data() + lo, hi - lo);
  std::vector<u64> values = evaluator->evaluate_points(chunk);
  const double secs = seconds_since(t0);
  std::lock_guard<std::mutex> lock(stats_mu_);
  node_stats_[node].symbols_computed += hi - lo;
  node_stats_[node].seconds += secs;
  return values;
}

void ProofSession::extend_parity(PrimeState& st) {
  const std::size_t m = message_prefix();
  const std::size_t e = plan_->code_length;
  if (m >= e) return;
  // The honest message symbols are evaluations of the proof
  // polynomial P (degree <= d), so the unique degree-<=d interpolant
  // through them IS P and the extension reproduces exactly the
  // symbols the parity nodes would have evaluated.
  std::vector<u64> full = st.code->encode_systematic(
      std::span<const u64>(st.sent.data(), m));
  std::copy(full.begin() + static_cast<long>(m), full.end(),
            st.sent.begin() + static_cast<long>(m));
}

// ---- Stage bodies (shared by the per-prime stages and the engine) --------

void ProofSession::apply_decode(PrimeState& st, GaoResult decoded) {
  st.decoded = std::move(decoded);
  st.report.decode_status = st.decoded.status;
  st.report.corrected_symbols.clear();
  st.report.implicated_nodes.clear();
  st.report.decode_quotient_steps = st.decoded.quotient_steps;
  st.report.decode_hgcd_calls = st.decoded.hgcd_calls;
  if (st.decoded.status == DecodeStatus::kOk) {
    st.report.corrected_symbols = st.decoded.error_locations;
    std::set<std::size_t> nodes;
    for (std::size_t loc : st.decoded.error_locations) {
      nodes.insert(owners_[loc]);
    }
    st.report.implicated_nodes = {nodes.begin(), nodes.end()};
  }
  invalidate_downstream(st, SessionStage::kDecoded);
}

void ProofSession::apply_verify(PrimeState& st) {
  obs::StageSpan span(stage_verify_, obs::kTraceSched, "verify", st.prime);
  st.report.verified = false;
  if (st.decoded.status == DecodeStatus::kOk) {
    VerifyResult vr = verify_proof(
        problem_, st.decoded.message, st.ops, config_.verification_trials,
        derive_stream(config_.seed, st.prime, PipelineStage::kVerify));
    st.report.verified = vr.accepted;
  }
  st.stage = SessionStage::kVerified;
  st.report.answer_residues.clear();
}

void ProofSession::apply_recover(PrimeState& st) {
  obs::StageSpan span(stage_recover_, obs::kTraceSched, "recover", st.prime);
  st.report.answer_residues.clear();
  if (st.report.verified) {
    st.report.answer_residues =
        problem_.recover(st.decoded.message, st.ops.prime());
    if (st.report.answer_residues.size() != spec_.answer_count) {
      throw std::logic_error("CamelotProblem::recover: answer count");
    }
  }
  st.stage = SessionStage::kRecovered;
}

// ---- Step 1: proof preparation, in distributed encoded form -------------

void ProofSession::prepare_prime(std::size_t prime_index) {
  state_at(prime_index);  // range check before the engine touches it
  run_engine(prime_index, prime_index + 1, nullptr, nullptr);
}

// ---- Broadcast over the (possibly adversarial) channel ------------------

void ProofSession::transport_prime(std::size_t prime_index,
                                   const StreamingSymbolChannel& channel) {
  WallTimer wt(&wall_seconds_);
  state_at_least(prime_index, SessionStage::kPrepared, "transport_prime");
  PrimeState& st = state_at(prime_index);
  const std::size_t e = plan_->code_length;
  // A barrier is a stream with one chunk.
  std::unique_ptr<SymbolStream> stream = channel.open(stream_spec(st));
  SymbolChunk word;
  word.symbols = st.sent;
  stream->push(std::move(word));
  stream->close();
  std::vector<u64> received(e, 0);
  std::size_t delivered = 0;
  while (!stream->exhausted()) {
    if (auto c = stream->poll()) {
      obs::StageSpan span(stage_transport_, obs::kTraceSched, "transport",
                          st.prime);
      std::copy(c->symbols.begin(), c->symbols.end(),
                received.begin() + static_cast<long>(c->offset));
      delivered += c->symbols.size();
    }
  }
  if (delivered != e) {
    st.received.clear();
    invalidate_downstream(st, SessionStage::kPrepared);
    throw std::logic_error(
        "ProofSession::transport_prime: channel delivered short (the "
        "barrier stage has no repair)");
  }
  st.received = std::move(received);
  invalidate_downstream(st, SessionStage::kTransported);
}

// ---- Step 2: error-correction during preparation of the proof -----------

void ProofSession::decode_prime(std::size_t prime_index) {
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  WallTimer wt(&wall_seconds_);
  state_at_least(prime_index, SessionStage::kTransported, "decode_prime");
  PrimeState& st = state_at(prime_index);
  GaoResult decoded;
  {
    obs::StageSpan span(stage_decode_, obs::kTraceSched, "decode", st.prime);
    decoded = gao_decode(*st.code, st.received);
  }
  apply_decode(st, std::move(decoded));
}

// ---- Step 3: checking the putative proof for correctness ----------------

void ProofSession::verify_prime(std::size_t prime_index) {
  WallTimer wt(&wall_seconds_);
  state_at_least(prime_index, SessionStage::kDecoded, "verify_prime");
  apply_verify(state_at(prime_index));
}

// ---- Residue extraction --------------------------------------------------

void ProofSession::recover_prime(std::size_t prime_index) {
  WallTimer wt(&wall_seconds_);
  state_at_least(prime_index, SessionStage::kVerified, "recover_prime");
  apply_recover(state_at(prime_index));
}

void ProofSession::reset_prime(std::size_t prime_index) {
  PrimeState& st = state_at(prime_index);
  st.sent.clear();
  st.received.clear();
  invalidate_downstream(st, SessionStage::kCreated);
}

// ---- Whole-session stages ------------------------------------------------

ProofSession& ProofSession::prepare() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kCreated) prepare_prime(pi);
  }
  return *this;
}

ProofSession& ProofSession::transport(const StreamingSymbolChannel& channel) {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kPrepared) {
      transport_prime(pi, channel);
    }
  }
  return *this;
}

ProofSession& ProofSession::transport(const ByzantineAdversary* adversary) {
  if (adversary != nullptr) {
    return transport(AdversarialStreamingChannel(*adversary));
  }
  return transport(LosslessStreamingChannel());
}

ProofSession& ProofSession::decode() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kTransported) decode_prime(pi);
  }
  return *this;
}

ProofSession& ProofSession::verify() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kDecoded) verify_prime(pi);
  }
  return *this;
}

ProofSession& ProofSession::recover() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
    if (primes_[pi].stage == SessionStage::kVerified) recover_prime(pi);
  }
  return *this;
}

void ProofSession::reset_for_run() {
  for (std::size_t pi = 0; pi < primes_.size(); ++pi) reset_prime(pi);
  for (NodeStats& ns : node_stats_) {
    ns.symbols_computed = 0;
    ns.seconds = 0.0;
  }
  wall_seconds_.store(0.0, std::memory_order_relaxed);
}

RunReport ProofSession::run(const ByzantineAdversary* adversary) {
  if (adversary != nullptr) {
    return run_streaming(AdversarialStreamingChannel(*adversary));
  }
  return run_streaming(LosslessStreamingChannel());
}

// ---- The pipeline engine -------------------------------------------------

StreamSpec ProofSession::stream_spec(const PrimeState& st) const {
  StreamSpec spec;
  spec.prime = st.prime;
  spec.code_length = plan_->code_length;
  spec.owners = owners_;
  spec.points = st.code->points();
  spec.field = &st.ops.prime();
  spec.stream_seed =
      derive_stream(config_.seed, st.prime, PipelineStage::kTransport);
  return spec;
}

void ProofSession::finalize_prime_stream(PrimeState& st,
                                         StreamingGaoDecoder& decoder) {
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  st.received.assign(decoder.received().begin(), decoder.received().end());
  st.stage = SessionStage::kTransported;
  GaoResult decoded;
  {
    obs::StageSpan span(stage_decode_, obs::kTraceSched, "decode", st.prime);
    decoded = decoder.finish();
  }
  apply_decode(st, std::move(decoded));
  apply_verify(st);
  apply_recover(st);
}

ProofSession::RepairOutcome ProofSession::repair_stream_shortfall(
    PrimeState& st, SymbolStream& stream, StreamingGaoDecoder& decoder,
    const SessionCancelFn& cancel) {
  const std::size_t m = message_prefix();
  for (std::size_t round = 1; !decoder.ready(); ++round) {
    if (round > config_.repair_budget) return RepairOutcome::kBudgetExhausted;
    if (!stream.reopen_for_repair(round)) {
      // A transport that refuses round 1 cannot lose symbols by
      // contract — the shortfall is a bug, not weather. A transport
      // that accepted earlier rounds but refuses now is out of repair
      // capacity; treat it like a spent budget.
      return round == 1 ? RepairOutcome::kUnsupported
                        : RepairOutcome::kBudgetExhausted;
    }
    st.report.repair_rounds = round;
    // Missing runs, split at node boundaries: the owner of each piece
    // re-prepares it. Message positions go back through the owner's
    // evaluator (an evaluator-prefix call under systematic encoding —
    // identical values, so repaired runs stay bit-identical); the
    // parity tail re-ships from the systematic extension still in
    // st.sent.
    for (const auto& [rlo, rhi] : decoder.missing_runs()) {
      std::size_t pos = rlo;
      while (pos < rhi) {
        if (cancel && cancel()) throw SessionCancelled();
        const std::size_t node = owners_[pos];
        const std::size_t node_end =
            node_chunk(node, plan_->code_length, config_.num_nodes).second;
        const std::size_t end = std::min(rhi, node_end);
        const std::size_t mend = std::min(end, m);
        if (pos < mend) {
          std::vector<u64> values = evaluate_node_range(st, node, pos, mend);
          std::copy(values.begin(), values.end(),
                    st.sent.begin() + static_cast<long>(pos));
        }
        SymbolChunk chunk;
        chunk.offset = pos;
        chunk.node = node;
        chunk.symbols.assign(st.sent.begin() + static_cast<long>(pos),
                             st.sent.begin() + static_cast<long>(end));
        stream.push(std::move(chunk));
        st.report.repaired_symbols += end - pos;
        pos = end;
      }
    }
    stream.close();
    while (!stream.exhausted()) {
      if (cancel && cancel()) throw SessionCancelled();
      if (auto c = stream.poll()) {
        obs::StageSpan span(stage_transport_, obs::kTraceSched, "repair",
                            st.prime);
        decoder.absorb(c->offset, c->symbols);
      }
    }
  }
  return RepairOutcome::kRepaired;
}

void ProofSession::fail_prime_stream(PrimeState& st) {
  // The received word stays empty — there is no complete word to
  // expose — but the pipeline still runs to kRecovered so report()
  // and complete() see a settled (failed) prime, exactly like a
  // beyond-radius decode.
  st.received.clear();
  st.stage = SessionStage::kTransported;
  apply_decode(st, GaoResult{});
  apply_verify(st);
  apply_recover(st);
}

void ProofSession::run_engine(std::size_t first, std::size_t last,
                              const StreamingSymbolChannel* channel,
                              const SessionCancelFn& cancel) {
  // Outermost declaration: the flights below hold decoders whose
  // received-word buffers live in this scope's arena, and they must
  // destruct before the binding is restored.
  ArenaScope arena_scope(stage_arena(config_.use_arena));
  WallTimer wt(&wall_seconds_);
  const std::size_t k = config_.num_nodes;
  const std::size_t e = plan_->code_length;
  const std::size_t m = message_prefix();
  const std::size_t msg_nodes = message_node_count();
  const std::size_t num_primes = last - first;
  auto check_cancel = [&] {
    if (cancel && cancel()) throw SessionCancelled();
  };

  // Per-prime in-flight state; stream and decoder stay null when the
  // engine only prepares.
  struct Flight {
    PrimeState* st = nullptr;
    std::unique_ptr<SymbolStream> stream;
    std::unique_ptr<StreamingGaoDecoder> decoder;
    std::mutex mu;  // serializes poll/absorb/repair
    std::atomic<std::size_t> nodes_done{0};
    std::atomic<std::size_t> msg_done{0};
    std::atomic<bool> finalized{false};
  };
  const auto flights = std::make_unique<Flight[]>(num_primes);
  for (std::size_t i = 0; i < num_primes; ++i) {
    Flight& fl = flights[i];
    fl.st = &primes_[first + i];
    ensure_code(*fl.st);
    fl.st->sent.assign(e, 0);
    fl.st->received.clear();
    invalidate_downstream(*fl.st, SessionStage::kCreated);
    if (channel != nullptr) {
      fl.stream = channel->open(stream_spec(*fl.st));
      fl.decoder = std::make_unique<StreamingGaoDecoder>(*fl.st->code);
    }
  }

  // A prime's tail (drain, repair, decode -> verify -> recover) runs on
  // the pool while other primes still prepare — that overlap is the
  // whole point. A single prime has nothing to overlap, so its caller
  // settles it after the join: the tail's scratch then lands in the
  // caller's arena (a service worker's long-lived one), not in a
  // fresh pool thread's, whose regions every call would fault in anew.
  const bool tail_on_caller = num_primes == 1;
  auto absorb = [&](Flight& fl, const SymbolChunk& c) {
    obs::StageSpan span(stage_transport_, obs::kTraceSched, "absorb",
                        fl.st->prime);
    fl.decoder->absorb(c.offset, c.symbols);
  };
  // Settles a closed stream: drives out the tail (a rate-limited
  // stream releases a bounded number of symbols per poll, so keep
  // polling, probing the deadline between absorbs), then runs
  // selective repair if the drained stream left the decoder short — a
  // spent budget settles the prime as a decode failure — and finally
  // decode -> verify -> recover.
  auto settle = [&](Flight& fl) {
    {
      std::lock_guard<std::mutex> lock(fl.mu);
      while (!fl.stream->exhausted()) {
        check_cancel();
        if (auto c = fl.stream->poll()) absorb(fl, *c);
      }
      if (!fl.decoder->ready() &&
          repair_stream_shortfall(*fl.st, *fl.stream, *fl.decoder, cancel) ==
              RepairOutcome::kBudgetExhausted) {
        fail_prime_stream(*fl.st);
        fl.finalized.store(true);
        return;
      }
      if (!fl.decoder->ready()) return;
    }
    finalize_prime_stream(*fl.st, *fl.decoder);
    fl.finalized.store(true);
  };

  // Ships node j's full chunk (final in st.sent) into the prime's
  // stream and absorbs what the channel delivers now; the k-th push
  // closes the stream and settles it unless the caller owns the tail.
  auto push_chunk = [&](Flight& fl, std::size_t j) {
    const auto [lo, hi] = node_chunk(j, e, k);
    SymbolChunk chunk;
    chunk.offset = lo;
    chunk.node = j;
    chunk.symbols.assign(fl.st->sent.begin() + static_cast<long>(lo),
                         fl.st->sent.begin() + static_cast<long>(hi));
    fl.stream->push(std::move(chunk));
    const bool last = fl.nodes_done.fetch_add(1) + 1 == k;
    if (last) fl.stream->close();
    if (last && !tail_on_caller) {
      settle(fl);
      return;
    }
    std::lock_guard<std::mutex> lock(fl.mu);
    while (auto c = fl.stream->poll()) absorb(fl, *c);
  };

  // Task t = (prime t/k, node t%k), claimed prime-major so early
  // primes' streams fill (and decode) while later primes prepare.
  std::atomic<std::size_t> next_task{0};
  const std::size_t total_tasks = num_primes * k;
  FirstError errors;
  auto worker = [&]() {
    // Each pool thread binds its own arena (the thread-local
    // process_local() when no service worker arena is bound), so the
    // chunks' scratch never contends across threads.
    ArenaScope arena_scope(stage_arena(config_.use_arena));
    try {
      while (!errors.failed()) {
        // Chunk boundary: an expired deadline stops here instead of
        // computing (and absorbing) the remaining chunks.
        check_cancel();
        const std::size_t t = next_task.fetch_add(1);
        if (t >= total_tasks) break;
        Flight& fl = flights[t / k];
        const std::size_t j = t % k;
        const auto [lo, hi] = node_chunk(j, e, k);
        const std::size_t mhi = std::min(hi, m);
        if (mhi > lo) {
          std::vector<u64> values = evaluate_node_range(*fl.st, j, lo, mhi);
          std::copy(values.begin(), values.end(),
                    fl.st->sent.begin() + static_cast<long>(lo));
        }
        // Chunks ending inside the message prefix are final now;
        // parity-bearing chunks wait for the systematic extension.
        if (channel == nullptr) continue;
        if (hi <= m) push_chunk(fl, j);
        if (mhi > lo && fl.msg_done.fetch_add(1) + 1 == msg_nodes && m < e) {
          // Last message sub-chunk of this prime landed (the msg_done
          // RMW chain orders every st.sent[0, m) write before this):
          // extend to the parity tail and release the deferred chunks.
          extend_parity(*fl.st);
          for (std::size_t jd = 0; jd < k; ++jd) {
            if (node_chunk(jd, e, k).second <= m) continue;  // pushed above
            check_cancel();
            push_chunk(fl, jd);
          }
        }
      }
    } catch (...) {
      errors.capture();
    }
  };
  unsigned threads = config_.num_threads != 0
                         ? config_.num_threads
                         : std::max(1u, std::thread::hardware_concurrency());
  threads = std::min<unsigned>(threads, static_cast<unsigned>(total_tasks));
  if (threads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  try {
    errors.rethrow_if_any();
    if (channel != nullptr && tail_on_caller) settle(flights[0]);
  } catch (const SessionCancelled&) {
    // Leave no half-prepared stage behind.
    for (std::size_t i = 0; i < num_primes; ++i) reset_prime(first + i);
    throw;
  }

  for (std::size_t i = 0; i < num_primes; ++i) {
    if (channel == nullptr) {
      // Nothing streams behind the parity tail, so extend it here: its
      // scratch then lands in the caller's arena, which the following
      // stages reuse, not in a short-lived pool thread's.
      extend_parity(*flights[i].st);
      invalidate_downstream(*flights[i].st, SessionStage::kPrepared);
    } else if (!flights[i].finalized.load()) {
      throw std::logic_error(
          "StreamingSymbolChannel: stream exhausted without delivering "
          "every symbol");
    }
  }
}

void ProofSession::run_prime_streaming(std::size_t prime_index,
                                       const StreamingSymbolChannel& channel,
                                       const SessionCancelFn& cancel) {
  state_at(prime_index);  // range check before the engine touches it
  run_engine(prime_index, prime_index + 1, &channel, cancel);
}

RunReport ProofSession::run_streaming(const StreamingSymbolChannel& channel) {
  reset_for_run();
  run_engine(0, primes_.size(), &channel, nullptr);
  return report();
}

// ---- Inspection ----------------------------------------------------------

u64 ProofSession::prime(std::size_t prime_index) const {
  return state_at(prime_index).prime;
}

SessionStage ProofSession::stage(std::size_t prime_index) const {
  return state_at(prime_index).stage;
}

const std::vector<u64>& ProofSession::sent(std::size_t prime_index) const {
  return state_at_least(prime_index, SessionStage::kPrepared, "sent").sent;
}

const std::vector<u64>& ProofSession::received(
    std::size_t prime_index) const {
  return state_at_least(prime_index, SessionStage::kTransported, "received")
      .received;
}

const PrimeRunReport& ProofSession::prime_report(
    std::size_t prime_index) const {
  return state_at(prime_index).report;
}

std::vector<std::size_t> ProofSession::implicated_nodes() const {
  std::set<std::size_t> nodes;
  for (const PrimeState& st : primes_) {
    nodes.insert(st.report.implicated_nodes.begin(),
                 st.report.implicated_nodes.end());
  }
  return {nodes.begin(), nodes.end()};
}

bool ProofSession::complete() const {
  for (const PrimeState& st : primes_) {
    if (st.stage != SessionStage::kRecovered || !st.report.verified ||
        st.report.decode_status != DecodeStatus::kOk) {
      return false;
    }
  }
  return !primes_.empty();
}

// ---- Reconstruction over the integers (CRT across primes) ---------------

std::vector<std::size_t> RunReport::implicated_nodes() const {
  std::set<std::size_t> nodes;
  for (const PrimeRunReport& pr : per_prime) {
    nodes.insert(pr.implicated_nodes.begin(), pr.implicated_nodes.end());
  }
  return {nodes.begin(), nodes.end()};
}

RunReport ProofSession::report() const {
  RunReport out;
  out.proof_symbols = spec_.degree_bound + 1;
  out.code_length = plan_->code_length;
  out.num_primes = plan_->primes.size();
  out.node_stats = node_stats_;
  out.wall_seconds = wall_seconds_.load(std::memory_order_relaxed);
  out.per_prime.reserve(primes_.size());
  for (const PrimeState& st : primes_) out.per_prime.push_back(st.report);

  out.success = complete();
  if (out.success) {
    out.answers.reserve(spec_.answer_count);
    for (std::size_t a = 0; a < spec_.answer_count; ++a) {
      std::vector<u64> residues(primes_.size());
      for (std::size_t pi = 0; pi < primes_.size(); ++pi) {
        residues[pi] = primes_[pi].report.answer_residues[a];
      }
      out.answers.push_back(
          spec_.answers_signed
              ? crt_reconstruct_signed(residues, plan_->primes)
              : crt_reconstruct(residues, plan_->primes));
    }
  }
  return out;
}

}  // namespace camelot
