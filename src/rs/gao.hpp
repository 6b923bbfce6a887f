// Gao's Reed--Solomon decoder (paper §2.3, [17]).
//
// Given a received word, interpolate G1 through it, run the extended
// Euclidean algorithm on (G0, G1) stopping when the remainder G drops
// below degree (e + d + 1) / 2, and divide G by the cofactor V:
// if the division is exact and deg P <= d, P is the message.
//
// The decoder also reports *error locations* — exactly the mechanism
// the paper uses to let every node "identify the nodes that did not
// properly participate in the community effort" (§1.3, step 2).
#pragma once

#include <utility>
#include <vector>

#include "rs/reed_solomon.hpp"

namespace camelot {

enum class DecodeStatus {
  kOk,             // message recovered (possibly after correcting errors)
  kDecodeFailure,  // more errors than the unique-decoding radius
};

struct GaoResult {
  DecodeStatus status = DecodeStatus::kDecodeFailure;
  // Message polynomial (proof coefficients p_0..p_d), valid iff kOk.
  Poly message;
  // Indices into the point array where the received word differed from
  // the re-encoded message, valid iff kOk.
  std::vector<std::size_t> error_locations;
  // The corrected codeword, valid iff kOk.
  std::vector<u64> corrected;
  // Remainder-sequence observability (valid for every status): genuine
  // Euclidean quotient steps taken and half-GCD recursion invocations
  // (1 when the budget stays below kHgcdCrossover and the sequence
  // runs classically, 0 for a clean word). ProofService aggregates
  // these into its Stats.
  std::size_t quotient_steps = 0;
  std::size_t hgcd_calls = 0;
};

// Decodes `received` (length e) against the code. The interpolation
// (three length-n NTTs, n = bit_ceil(e)) and the re-encode (one) run
// on the code's subgroup tables; the Euclidean remainder sequence runs
// through the half-GCD cascade (poly/hgcd.hpp) when the reduction
// budget deg G0 - stop is at least the constant kHgcdCrossover —
// O(e log^2 e) even for the dense error patterns whose many degree-1
// quotients used to cost Theta(e^2) — and stays on the classical
// fast-division loop (poly/fast_div.hpp) below it. Both paths emit
// the same genuine quotient sequence, so the choice never moves an
// output word. A clean word stops after the interpolation.
GaoResult gao_decode(const ReedSolomonCode& code,
                     std::span<const u64> received);

// Resumable decode front end for streaming transports: symbols are
// absorbed chunk by chunk, in any arrival order, and the per-symbol
// boundary work (canonical reduction + Montgomery domain conversion)
// happens at absorb time — overlapped with the nodes still preparing
// the rest of the codeword — so finish() starts directly at the
// interpolation. finish() is bit-identical to gao_decode() on the
// same word.
class StreamingGaoDecoder {
 public:
  // The code must outlive the decoder.
  explicit StreamingGaoDecoder(const ReedSolomonCode& code);

  // Absorbs symbols for positions [offset, offset + symbols.size()).
  // Each position must be absorbed exactly once (std::logic_error on
  // overlap or out-of-range chunks). Not thread-safe; the session
  // serializes absorbs per prime.
  void absorb(std::size_t offset, std::span<const u64> symbols);

  std::size_t absorbed() const noexcept { return absorbed_; }
  // True once every one of the code's e positions has been absorbed.
  bool ready() const noexcept { return absorbed_ == canonical_.size(); }
  // Repair entry point for lossy transports: the maximal contiguous
  // runs [lo, hi) of positions not yet absorbed — exactly what a
  // selective re-prepare must re-evaluate and re-push. Empty iff
  // ready().
  std::vector<std::pair<std::size_t, std::size_t>> missing_runs() const;
  // Moves the canonical received word out (meaningful once ready()).
  // finish() reads it, so take it only after the decode.
  std::vector<u64> received() && noexcept { return std::move(canonical_); }

  // Runs interpolation + remainder sequence; requires ready().
  GaoResult finish() const;

 private:
  const ReedSolomonCode& code_;
  bool montgomery_;
  std::vector<u64> canonical_;  // received word, canonical domain
  std::vector<u64> domain_;     // same word in the backend's domain
  std::vector<bool> seen_;
  std::size_t absorbed_ = 0;
};

}  // namespace camelot
