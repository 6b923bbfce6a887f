// Shared configuration and report types of the Round Table pipeline,
// used by ProofSession and by the ProofService / shard layers that
// drive it.
#pragma once

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "field/bigint.hpp"
#include "field/field.hpp"
#include "field/field_ops.hpp"
#include "rs/gao.hpp"

namespace camelot {

struct ClusterConfig {
  // Number of Knights around the table (K).
  std::size_t num_nodes = 8;
  // Code length factor: e = ceil(redundancy * (d+1)). The slack buys
  // the decoding radius floor((e-d-1)/2).
  double redundancy = 1.5;
  // Worker threads simulating node parallelism (0 = hardware).
  unsigned num_threads = 0;
  // Random-point verification trials per prime (soundness (d/q)^t).
  std::size_t verification_trials = 2;
  // Forces the CRT prime count (0 = derive from the answer bound).
  std::size_t num_primes = 0;
  // Root seed; every random choice draws from a stream derived as
  // derive_stream(seed, prime, stage) — see core/rng.hpp.
  u64 seed = 0xCA3E107;
  // Arithmetic backend for evaluators and the decode pipeline. The
  // default asks for the AVX-512 Montgomery kernels; FieldOps resolves
  // the request at runtime and steps down the ladder (AVX-512 -> AVX2
  // -> scalar Montgomery) when the CPU lacks the extension or
  // CAMELOT_FORCE_SCALAR / CAMELOT_FORCE_AVX2 is set, so the default
  // is safe on every host (and bit-identical either way): below the
  // lanes no ISA-flagged code runs, which the isa_confinement test
  // checks on the built binaries.
  FieldBackend backend = FieldBackend::kMontgomeryAvx512;
  // Systematic-encode fast path: honest nodes run the problem's
  // evaluator only over the message prefix [0, d+1) of the codeword
  // and the parity tail [d+1, e) comes from the code's systematic
  // extension (two length-bit_ceil(e) NTTs instead of e-d-1
  // evaluator points). The codeword is bit-identical either
  // way — the degree-<=d interpolant through the d+1 honest message
  // symbols is the proof polynomial itself — so decode, verify and
  // the final report do not change; only who computes what does.
  bool systematic_encode = true;
  // Selective-repair budget for lossy (erasure) transports: how many
  // re-prepare rounds a prime may spend re-pushing chunks the stream
  // dropped before the shortfall becomes a decode failure
  // (DecodeStatus::kDecodeFailure, never a hang or a throw). Each
  // round re-evaluates only the missing message positions (the parity
  // tail re-ships from the systematic extension) — see
  // ProofSession::run_prime_streaming. Irrelevant for lossless and
  // purely-corrupting transports, which never deliver short.
  std::size_t repair_budget = 3;
};

// The node partition of a length-e codeword over K nodes: node j owns
// the contiguous chunk [ceil(j*e/K), ceil((j+1)*e/K)), so chunk sizes
// differ by at most one symbol and position i belongs to node
// floor(i*K/e).
inline std::pair<std::size_t, std::size_t> node_chunk(std::size_t node,
                                                      std::size_t e,
                                                      std::size_t num_nodes) {
  const std::size_t k = num_nodes;
  const std::size_t lo = (node * e + k - 1) / k;
  const std::size_t hi = std::min(e, ((node + 1) * e + k - 1) / k);
  return {lo, hi};
}

struct NodeStats {
  std::size_t node_id = 0;
  // Symbols this node produced through the problem's evaluator. Under
  // systematic encoding only message-prefix symbols count: the parity
  // tail is a cheap code extension, not evaluator work.
  std::size_t symbols_computed = 0;
  double seconds = 0.0;
};

// Outcome of proof preparation + decode + verify for one prime.
struct PrimeRunReport {
  u64 prime = 0;
  DecodeStatus decode_status = DecodeStatus::kDecodeFailure;
  bool verified = false;
  // Symbol positions the decoder corrected.
  std::vector<std::size_t> corrected_symbols;
  // Nodes implicated by the error locations (deduplicated) — the
  // paper's "identify the nodes that did not properly participate".
  std::vector<std::size_t> implicated_nodes;
  // Remainder-sequence work the Gao decoder performed for this prime
  // (valid once decoded): genuine Euclidean quotient steps, and how
  // many times the half-GCD routine was entered (1 = pure classical
  // run below the crossover; > 1 = recursive cascade engaged).
  std::size_t decode_quotient_steps = 0;
  std::size_t decode_hgcd_calls = 0;
  // Selective-repair work this prime's transport needed (0 on
  // lossless channels): rounds of re-prepare after a decode
  // shortfall, and how many symbols were re-pushed across them. Both
  // are deterministic functions of (seed, prime, loss spec), so they
  // participate in golden report comparisons.
  std::size_t repair_rounds = 0;
  std::size_t repaired_symbols = 0;
  // Residues of the answers modulo this prime (valid iff decoded).
  std::vector<u64> answer_residues;
};

// How a submitted job left the ProofService scheduler. Anything but
// kOk means the pipeline never completed: the report carries no
// answers and success is false.
enum class JobStatus : unsigned char {
  kOk = 0,
  // Bounded submit queue was full at submit() time; the job never ran.
  kRejected,
  // The job's deadline passed before a worker could finish it.
  kDeadlineExpired,
};

struct RunReport {
  // True iff every prime decoded and passed verification.
  bool success = false;
  // Scheduler outcome (always kOk outside ProofService).
  JobStatus status = JobStatus::kOk;
  // CRT-reconstructed integer answers (valid iff success).
  std::vector<BigInt> answers;
  std::vector<PrimeRunReport> per_prime;
  std::vector<NodeStats> node_stats;  // summed across primes
  // Proof size in symbols per prime (d+1) — the paper's K measure.
  std::size_t proof_symbols = 0;
  // Code length e per prime; total broadcast = e * num_primes symbols.
  std::size_t code_length = 0;
  std::size_t num_primes = 0;
  double wall_seconds = 0.0;

  // Union of implicated nodes across primes.
  std::vector<std::size_t> implicated_nodes() const;
};

}  // namespace camelot
