// Staged, resumable Camelot pipeline (paper §1.3, steps 1-3).
//
// The paper's protocol is explicitly staged: nodes prepare their
// symbol chunks, the codeword is broadcast (and possibly corrupted),
// honest parties decode, spot-check the putative proof, and CRT-
// reconstruct the integer answers. ProofSession exposes exactly those
// stages as first-class operations over one problem × one PrimePlan,
// with independent per-prime state:
//
//   ProofSession s(problem, config);
//   s.prepare();              // step 1: per-node symbol chunks
//   s.transport(&adversary);  // broadcast bus, adversarial channel
//   s.decode();               // step 2: Gao decode + node implication
//   s.verify();               // step 3: random spot checks
//   s.recover();              // residues per prime
//   RunReport r = s.report(); // CRT across primes
//
// Because each prime carries its own stage cursor, a caller can
// re-run only a failed prime (re-transport on a clean channel, then
// decode_prime/verify_prime) instead of repeating the whole job — the
// Reed--Solomon code for that prime is already built and stays cached
// in the session.
//
// Field state (Montgomery contexts, NTT twiddle tables) comes from a
// FieldCache — the process-global one unless the caller injects a
// specific cache (ProofService injects its own shared instance).
// All randomness is drawn from derive_stream(config.seed, prime,
// stage), so results are identical regardless of num_threads.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/byzantine.hpp"
#include "core/cluster_types.hpp"
#include "core/prime_plan.hpp"
#include "core/proof_problem.hpp"
#include "core/symbol_stream.hpp"
#include "field/field_cache.hpp"
#include "obs/metrics.hpp"
#include "rs/code_cache.hpp"
#include "rs/gao.hpp"

namespace camelot {

// Per-prime progress through the pipeline.
enum class SessionStage {
  kCreated,      // plan chosen, nothing computed yet
  kPrepared,     // clean codeword (the nodes' honest symbols) ready
  kTransported,  // received word available (possibly corrupted)
  kDecoded,      // Gao decode attempted
  kVerified,     // spot checks done on the decoded proof
  kRecovered,    // answer residues extracted
};

// Thrown by run_prime_streaming when its cancel callback reports
// expiry at a chunk boundary: the in-flight prime aborts instead of
// finishing work whose job has already been discarded. The prime's
// state is reset to kCreated before the throw, so the session stays
// usable (e.g. for a selective re-run with a fresh budget).
class SessionCancelled : public std::runtime_error {
 public:
  SessionCancelled()
      : std::runtime_error(
            "ProofSession: prime pipeline cancelled mid-flight") {}
};

// Cooperative cancellation probe, polled at chunk compute/absorb
// boundaries. Must be cheap and thread-safe; returning true aborts.
using SessionCancelFn = std::function<bool()>;

class ProofSession {
 public:
  // The problem must outlive the session. `cache` defaults to
  // FieldCache::global(); `plan` lets a ProofService inject a cached
  // PrimePlan (nullptr recomputes it from the spec); `codes` lets a
  // service share built ReedSolomonCode instances across jobs
  // (nullptr now falls back to CodeCache::global(), so stand-alone
  // sessions reuse built codes across invocations too); `metrics` is
  // the registry the session's per-stage span histograms land in
  // (nullptr falls back to obs::Registry::global(); ProofService
  // injects its own so one scrape of the service covers its sessions'
  // stage latencies).
  ProofSession(const CamelotProblem& problem, ClusterConfig config,
               std::shared_ptr<FieldCache> cache = nullptr,
               std::shared_ptr<const PrimePlan> plan = nullptr,
               std::shared_ptr<CodeCache> codes = nullptr,
               std::shared_ptr<obs::Registry> metrics = nullptr);

  const ClusterConfig& config() const noexcept { return config_; }
  const PrimePlan& plan() const noexcept { return *plan_; }
  std::size_t num_primes() const noexcept { return primes_.size(); }

  // ---- Whole-session stages ---------------------------------------------
  // Each call advances every prime sitting exactly at the preceding
  // stage and leaves the others untouched, so a selectively re-run
  // prime is never clobbered by a later whole-session call.
  ProofSession& prepare();
  ProofSession& transport(const StreamingSymbolChannel& channel);
  // Convenience: adversarial channel when non-null, lossless otherwise.
  ProofSession& transport(const ByzantineAdversary* adversary = nullptr);
  ProofSession& decode();
  ProofSession& verify();
  ProofSession& recover();

  // One-shot pipeline; resets any existing per-prime state first.
  // Drives the overlapped pipeline below over an adversarial (when
  // non-null) or lossless streaming channel. The reports are
  // bit-identical to composing the whole-session stages above.
  RunReport run(const ByzantineAdversary* adversary = nullptr);

  // ---- Streaming pipeline -----------------------------------------------
  // Overlapped one-shot run: per-(prime, node) chunks are pushed into
  // the channel's per-prime streams the moment they are computed, the
  // resumable Gao decoder absorbs them as they arrive, and a prime
  // decodes/verifies/recovers as soon as its stream drains — while
  // other primes are still preparing. Resets existing state first.
  // Worker threads: config.num_threads (0 = hardware concurrency).
  RunReport run_streaming(const StreamingSymbolChannel& channel);

  // One prime's full pipeline (prepare -> stream -> decode -> verify
  // -> recover) driven through `channel` on the calling thread (plus
  // config.num_threads node workers when > 1). Safe to call
  // concurrently for *distinct* primes of one session — this is the
  // unit the ProofService scheduler steals across jobs. `cancel`,
  // when set, is polled at every chunk compute/absorb boundary; once
  // it returns true the prime resets to kCreated and the call throws
  // SessionCancelled — this is how an expired job's deadline reaches
  // *in-flight* primes instead of only unstarted ones.
  void run_prime_streaming(std::size_t prime_index,
                           const StreamingSymbolChannel& channel,
                           const SessionCancelFn& cancel = nullptr);

  // ---- Per-prime stages (selective re-run) ------------------------------
  // Preconditions are checked: each stage requires the prime to have
  // reached at least the preceding stage (std::logic_error otherwise).
  // Re-running a stage invalidates the stages after it.
  void prepare_prime(std::size_t prime_index);
  // Barrier broadcast of the prepared word: opens the prime's stream,
  // pushes sent() as one chunk, closes it and drains it into
  // received(). This stage has no repair, so a channel that delivers
  // short throws std::logic_error and leaves the prime at kPrepared.
  void transport_prime(std::size_t prime_index,
                       const StreamingSymbolChannel& channel);
  void decode_prime(std::size_t prime_index);
  void verify_prime(std::size_t prime_index);
  void recover_prime(std::size_t prime_index);
  // Back to kCreated (the code stays cached for the re-run).
  void reset_prime(std::size_t prime_index);

  // ---- Inspection --------------------------------------------------------
  u64 prime(std::size_t prime_index) const;
  SessionStage stage(std::size_t prime_index) const;
  // Clean codeword as computed by the nodes (requires kPrepared).
  const std::vector<u64>& sent(std::size_t prime_index) const;
  // Post-transport word (requires kTransported).
  const std::vector<u64>& received(std::size_t prime_index) const;
  // Per-prime outcome snapshot (fields are valid up to the stage the
  // prime has reached).
  const PrimeRunReport& prime_report(std::size_t prime_index) const;
  // Union of implicated nodes across decoded primes.
  std::vector<std::size_t> implicated_nodes() const;
  // True iff every prime decoded, verified and recovered.
  bool complete() const;

  // Snapshot of the overall outcome; performs the CRT reconstruction
  // when every prime has recovered residues.
  RunReport report() const;

 private:
  struct PrimeState {
    u64 prime = 0;
    SessionStage stage = SessionStage::kCreated;
    FieldOps ops;
    // Built on first use; shared via the CodeCache when one was
    // injected (deep-const, so cross-job sharing is safe).
    std::shared_ptr<const ReedSolomonCode> code;
    std::vector<u64> sent;
    std::vector<u64> received;
    GaoResult decoded;
    PrimeRunReport report;

    explicit PrimeState(u64 q, FieldOps o) : prime(q), ops(std::move(o)) {
      report.prime = q;
    }
  };

  PrimeState& state_at(std::size_t prime_index);
  const PrimeState& state_at(std::size_t prime_index) const;
  const PrimeState& state_at_least(std::size_t prime_index,
                                   SessionStage min_stage,
                                   const char* what) const;
  void invalidate_downstream(PrimeState& st, SessionStage new_stage);
  void ensure_code(PrimeState& st);
  // The one pipeline driver behind prepare_prime, run_prime_streaming
  // and run_streaming. Resets primes [first, last) to kCreated, then
  // claims (prime, node) tasks prime-major on a pool of
  // min(num_threads, tasks) threads; each task evaluates the node's
  // message-prefix chunk. With no channel the parity tails are
  // extended after the pool joins and the primes end at kPrepared.
  // With one, the task that lands a prime's last message chunk extends
  // its parity tail, every chunk is pushed into the prime's stream the
  // moment it is final, and the push that closes the stream
  // drains it, repairs any shortfall and finalizes the prime to
  // kRecovered — while later primes are still preparing. A lone prime
  // has nothing to overlap, so the caller does that after the join,
  // on its own thread. `cancel` is
  // polled at every chunk compute/absorb boundary; once it returns
  // true the primes reset to kCreated and SessionCancelled is thrown.
  void run_engine(std::size_t first, std::size_t last,
                  const StreamingSymbolChannel* channel,
                  const SessionCancelFn& cancel);
  // The broadcast metadata of one prime, for channel.open().
  StreamSpec stream_spec(const PrimeState& st) const;
  // Requires a fully-absorbed decoder; runs decode -> verify ->
  // recover.
  void finalize_prime_stream(PrimeState& st, StreamingGaoDecoder& decoder);
  // Selective repair after a drained stream left the decoder short
  // (lossy transports): round by round, re-arms the stream via
  // reopen_for_repair, re-evaluates only the missing *message*
  // positions through the owners' evaluators (an evaluator-prefix
  // call under systematic encoding), re-ships the missing parity tail
  // from the systematic extension already in st.sent, and drains the
  // re-pushed chunks into the decoder. Bounded by
  // config.repair_budget rounds.
  enum class RepairOutcome {
    kUnsupported,      // transport accepts no repair traffic
    kBudgetExhausted,  // budget spent, symbols still missing
    kRepaired,         // decoder fully absorbed
  };
  RepairOutcome repair_stream_shortfall(PrimeState& st, SymbolStream& stream,
                                        StreamingGaoDecoder& decoder,
                                        const SessionCancelFn& cancel);
  // Terminal shortfall: the prime's pipeline completes as a decode
  // failure (never a hang or a throw) — empty received word, no
  // verification, no residues.
  void fail_prime_stream(PrimeState& st);
  // Number of leading codeword positions the evaluator computes
  // directly: d+1 on the systematic fast path, the full code length
  // when the path is off (or the code is rate-1).
  std::size_t message_prefix() const;
  // Count of nodes whose chunk intersects [0, message_prefix()) — the
  // nodes that perform evaluator work on the systematic path.
  std::size_t message_node_count() const;
  // Evaluates codeword positions [lo, hi) on node's behalf (one
  // batched evaluator call) and records its stats; callers clamp hi
  // to the message prefix on the systematic path.
  std::vector<u64> evaluate_node_range(PrimeState& st, std::size_t node,
                                       std::size_t lo, std::size_t hi);
  // Extends the message prefix already sitting in st.sent[0, m) to
  // the parity tail st.sent[m, e) via the code's systematic encoder.
  void extend_parity(PrimeState& st);
  // Stage bodies shared by the per-prime stage methods (which add
  // precondition checks and wall timing) and the engine.
  void apply_decode(PrimeState& st, GaoResult decoded);
  void apply_verify(PrimeState& st);
  void apply_recover(PrimeState& st);
  void reset_for_run();

  const CamelotProblem& problem_;
  ClusterConfig config_;
  ProofSpec spec_;
  std::shared_ptr<FieldCache> cache_;
  std::shared_ptr<CodeCache> codes_;  // never null (global() fallback)
  std::shared_ptr<obs::Registry> metrics_;  // never null (global() fallback)
  // Per-stage latency histograms resolved once at construction
  // (registry lookups lock; steady-state span observes do not). Every
  // path feeds them at the same granularity: prepare per node chunk,
  // transport per absorbed chunk, parity (systematic extension),
  // decode, verify and recover per prime.
  obs::Histogram* stage_prepare_ = nullptr;
  obs::Histogram* stage_parity_ = nullptr;
  obs::Histogram* stage_transport_ = nullptr;
  obs::Histogram* stage_decode_ = nullptr;
  obs::Histogram* stage_verify_ = nullptr;
  obs::Histogram* stage_recover_ = nullptr;
  std::shared_ptr<const PrimePlan> plan_;
  std::vector<std::size_t> owners_;  // symbol index -> owning node
  std::vector<PrimeState> primes_;
  // Guards node_stats_ (written concurrently by node workers and by
  // concurrent per-prime streaming pipelines).
  std::mutex stats_mu_;
  std::vector<NodeStats> node_stats_;
  // Accumulated stage seconds. Atomic because concurrent per-prime
  // streaming pipelines each add their elapsed time; under overlap
  // this is closer to busy-time than wall-clock.
  std::atomic<double> wall_seconds_{0.0};
};

}  // namespace camelot
