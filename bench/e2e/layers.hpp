// Outside-in layer decomposition for the traced runs. A traced job
// runs through the ProofSession barrier stages, each stage call timed
// as a span under the job's span. A layer pass then calls the layers
// below the session directly on the same inputs (the evaluator over
// every node's message-prefix chunk, the systematic encoder, the Gao
// decoder, interpolation, the NTT and the field kernels) and times
// each call as a span of its own.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/proof_session.hpp"
#include "field/field_cache.hpp"
#include "record.hpp"
#include "rs/code_cache.hpp"

namespace camelot::e2e {

// The field and code caches a workload's sessions share.
struct Caches {
  std::shared_ptr<FieldCache> fields = std::make_shared<FieldCache>();
  std::shared_ptr<CodeCache> codes = std::make_shared<CodeCache>();
};

// One traced job, layer by layer. Stage seconds are summed over
// primes; layer-pass fields are summed over primes and nodes.
struct JobLayers {
  double prepare_s = 0.0;
  double transport_s = 0.0;
  double decode_s = 0.0;
  double verify_s = 0.0;
  double recover_s = 0.0;
  // Wall time of the job span, and the share of it that the stage
  // spans cover (needs a recorder).
  double wall_s = 0.0;
  double attributed_share = 0.0;

  double evaluator_busy_s = 0.0;
  // The slowest node's evaluator time, summed over the primes it
  // served: one node's share of the work.
  double evaluator_node_max_s = 0.0;
  double evaluator_points = 0.0;
  double parity_s = 0.0;
  double rs_decode_s = 0.0;
  double interp_s = 0.0;
  double quotient_steps = 0.0;
  double hgcd_calls = 0.0;
  double corrected_symbols = 0.0;
  double ntt_us = 0.0;
  double mul_ns = 0.0;
  // Every direct call reproduced the session's own words.
  bool agrees = true;
  // The job's answer, assembled (CRT) inside the job span.
  RunReport report;
};

// Runs one job through the barrier stages (prepare when `prepare`,
// then transport over `channel`, decode, verify, recover), each stage
// a span under a span named `job_name` when `rec` is set. The stage
// calls go prime by prime, so a session whose primes were already
// recovered is transported afresh. Fills the stage fields and the
// report.
JobLayers run_stages(ProofSession& session, bool prepare,
                     const SymbolChannel& channel, SpanRecorder* rec,
                     std::uint64_t job, const std::string& job_name);

// The layer pass over a session whose primes have all been
// transported; fills the layer-pass fields of `out`. `caches` must be
// the ones the session was built with, so the pass reuses its field
// tables and codes.
void run_layers(const ProofSession& session, const CamelotProblem& problem,
                const Caches& caches, SpanRecorder& rec, std::uint64_t job,
                JobLayers& out);

// Accumulates traced jobs and writes the per-layer metrics (means over
// the jobs added) into a run result.
class LayerReport {
 public:
  void add(const JobLayers& job);
  // `untraced_job_s` is the untraced p50 that trace.overhead is
  // measured against.
  void write(RunResult& r, double untraced_job_s) const;

 private:
  JobLayers sums_;
  std::size_t jobs_ = 0;
};

}  // namespace camelot::e2e
