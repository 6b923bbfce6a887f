// Keyed cache of ReedSolomonCode instances.
//
// Building a code means building its per-code tables — the roots of
// unity, the transform of the correlation kernel, the interpolation
// factors of the whole word and of the message prefix, and Gao's G0:
// a few length-n NTTs plus two vanishing-polynomial products per
// prime. CodeCache keys the built code by (prime, degree bound,
// length, resolved backend) and hands out shared
// immutable instances: a ReedSolomonCode is deep-const after
// construction (everything is built in the constructor), so
// concurrent sessions can decode against one instance.
//
// ProofService shares one CodeCache across every job it runs;
// ProofSession uses one when injected and builds privately otherwise.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "rs/reed_solomon.hpp"

namespace camelot {

class CodeCache {
 public:
  // `max_entries` bounds the resident codes; exceeding it clears the
  // map (outstanding shared_ptr holders stay valid, entries rebuild on
  // next request), so cycling through many distinct specs cannot grow
  // the cache without bound.
  explicit CodeCache(std::size_t max_entries = 128)
      : max_entries_(max_entries) {}
  CodeCache(const CodeCache&) = delete;
  CodeCache& operator=(const CodeCache&) = delete;

  // Shared code for (ops.prime(), degree_bound, length), built on
  // first request. The resolved backend participates in the key:
  // different backends produce bit-identical *values* but distinct
  // kernel bindings.
  std::shared_ptr<const ReedSolomonCode> code(const FieldOps& ops,
                                              std::size_t degree_bound,
                                              std::size_t length);

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    // Codes currently resident (gauge): each entry owns its per-code
    // tables, so this measures the precomputation the cache is
    // amortizing.
    std::size_t resident = 0;
  };
  Stats stats() const;

  // Process-wide default cache (used by ProofSession when the caller
  // does not inject one, mirroring FieldCache::global()): stand-alone
  // sessions and one-shot ProofSession::run calls reuse built codes
  // across invocations exactly like ProofService jobs do.
  static const std::shared_ptr<CodeCache>& global();

 private:
  std::size_t max_entries_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::shared_ptr<const ReedSolomonCode>>
      codes_;
  Stats stats_;
};

}  // namespace camelot
