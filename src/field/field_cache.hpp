// Per-prime field state cache (ROADMAP follow-up to PR 1).
//
// A Camelot run touches the same handful of CRT primes over and over:
// every session, every node evaluator and every decode rebuilds the
// Montgomery context and re-powers the NTT stage roots. FieldCache
// keys both by prime and hands out shared immutable instances:
//
//   * MontgomeryField — the REDC constants for q;
//   * NttTables       — root power tables for the butterfly kernel.
//
// ProofSession pulls its per-prime FieldOps handles from a cache (the
// process-global one by default), and ProofService shares one cache
// across every submitted problem. Thread-safe; entries are
// shared_ptr<const T>, so a replaced entry stays valid for holders.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "field/field_ops.hpp"
#include "poly/ntt.hpp"

namespace camelot {

class FieldCache {
 public:
  // `max_primes` bounds the number of cached primes (a CRT plan uses
  // a handful; the default comfortably covers many concurrent specs).
  // When the bound is exceeded the cache is cleared — outstanding
  // shared_ptr holders stay valid, the entries are simply rebuilt on
  // next request — so a long-lived process cycling through many
  // distinct specs cannot grow the cache without bound.
  explicit FieldCache(std::size_t max_primes = 64)
      : max_primes_(max_primes) {}
  FieldCache(const FieldCache&) = delete;
  FieldCache& operator=(const FieldCache&) = delete;

  // Shared Montgomery context for q (built on first request).
  std::shared_ptr<const MontgomeryField> mont(u64 prime);

  // Shared twiddle tables for q supporting transforms of at least
  // min_size points (clamped by the field's two-adicity). A request
  // larger than the cached capacity rebuilds and replaces the entry.
  std::shared_ptr<const NttTables> ntt_tables(u64 prime,
                                              std::size_t min_size);

  // Backend handle bundling both cached objects.
  FieldOps ops(u64 prime, std::size_t min_ntt_size,
               FieldBackend backend = FieldBackend::kMontgomery);

  struct Stats {
    std::size_t mont_hits = 0;
    std::size_t mont_misses = 0;
    std::size_t ntt_hits = 0;
    std::size_t ntt_misses = 0;  // includes capacity-growth rebuilds
    // Primes currently resident (gauge, not a counter) — exported
    // through ProofService::Stats for capacity planning against
    // max_primes.
    std::size_t resident = 0;
  };
  Stats stats() const;

  // Process-wide default cache (used by ProofSession when the caller
  // does not supply one, so even one-shot ProofSession::run calls reuse
  // per-prime state across invocations).
  static const std::shared_ptr<FieldCache>& global();

 private:
  // Table lookup/build against an already-fetched Montgomery context
  // (saves the second locked map lookup on the ops() path).
  std::shared_ptr<const NttTables> ntt_tables_for(
      const std::shared_ptr<const MontgomeryField>& field, u64 prime,
      std::size_t min_size);

  // Must hold mu_. Clears both maps once more than max_primes_ primes
  // are resident.
  void enforce_bound_locked();

  std::size_t max_primes_;
  mutable std::mutex mu_;
  std::unordered_map<u64, std::shared_ptr<const MontgomeryField>> mont_;
  std::unordered_map<u64, std::shared_ptr<const NttTables>> ntt_;
  Stats stats_;
};

}  // namespace camelot
