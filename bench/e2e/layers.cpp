#include "layers.hpp"

#include <algorithm>
#include <bit>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "field/backend_dispatch.hpp"
#include "poly/ntt.hpp"
#include "rs/gao.hpp"

namespace camelot::e2e {

namespace {

// Keeps the probe kernels' results observable.
volatile u64 g_sink;

// The per-layer metrics that are plain means over the traced jobs.
struct LayerMetric {
  const char* name;
  const char* unit;
  double JobLayers::*field;
};

constexpr LayerMetric kMeans[] = {
    {"session.prepare_s", "s", &JobLayers::prepare_s},
    {"session.transport_s", "s", &JobLayers::transport_s},
    {"session.decode_s", "s", &JobLayers::decode_s},
    {"session.verify_s", "s", &JobLayers::verify_s},
    {"session.recover_s", "s", &JobLayers::recover_s},
    {"evaluator.busy_s", "s", &JobLayers::evaluator_busy_s},
    {"evaluator.node_max_s", "s", &JobLayers::evaluator_node_max_s},
    {"evaluator.points", "count", &JobLayers::evaluator_points},
    {"rs.parity_s", "s", &JobLayers::parity_s},
    {"rs.decode_s", "s", &JobLayers::rs_decode_s},
    {"rs.interp_s", "s", &JobLayers::interp_s},
    {"rs.quotient_steps", "count", &JobLayers::quotient_steps},
    {"rs.hgcd_calls", "count", &JobLayers::hgcd_calls},
    {"rs.corrected_symbols", "count", &JobLayers::corrected_symbols},
    {"poly.ntt_us", "us", &JobLayers::ntt_us},
    {"field.mul_ns", "ns", &JobLayers::mul_ns},
    {"trace.attributed_share", "ratio", &JobLayers::attributed_share},
};

// Median forward-NTT time, in microseconds, of an n-point transform
// on the resolved backend's lane kernels with the cached tables.
double ntt_probe_us(const FieldOps& ops, std::size_t n) {
  std::vector<u64> input(n);
  for (std::size_t i = 0; i < n; ++i) {
    input[i] = (i * 7919 + 1) % ops.modulus();
  }
  return with_lane_field(ops.backend(), ops.mont(), [&](const auto& lf) {
    std::vector<double> times;
    for (int rep = 0; rep < 15; ++rep) {
      std::vector<u64> a = input;
      const auto t0 = Clock::now();
      ntt_inplace(a, /*inverse=*/false, lf, *ops.ntt_tables());
      times.push_back(seconds_since(t0));
      g_sink = a[0];
    }
    return median(times) * 1e6;
  });
}

// Median cost of one Montgomery product, in nanoseconds, through the
// resolved backend's batch kernel (the scalar loop when it has none).
double mul_probe_ns(const FieldOps& ops) {
  constexpr std::size_t kN = 4096;
  std::vector<u64> a(kN), b(kN), out(kN);
  for (std::size_t i = 0; i < kN; ++i) {
    a[i] = (i * 104729 + 3) % ops.modulus();
    b[i] = (i * 15485863 + 5) % ops.modulus();
  }
  return with_lane_field(ops.backend(), ops.mont(), [&](const auto& lf) {
    using Lane = std::decay_t<decltype(lf)>;
    std::vector<double> times;
    for (int rep = 0; rep < 31; ++rep) {
      const auto t0 = Clock::now();
      if constexpr (FieldHasBatchKernels<Lane>) {
        lf.mul_vec(a.data(), b.data(), out.data(), kN);
      } else {
        for (std::size_t i = 0; i < kN; ++i) out[i] = lf.mul(a[i], b[i]);
      }
      times.push_back(seconds_since(t0));
      g_sink = out[rep];
    }
    return median(times) * 1e9 / double(kN);
  });
}

// Adds one stage's lifetime to a stage total and records it as a span.
class StageTimer {
 public:
  StageTimer(SpanRecorder* rec, std::string name, std::uint64_t job,
             double* total)
      : span_(rec, std::move(name), job), total_(total), t0_(Clock::now()) {}
  ~StageTimer() { *total_ += seconds_since(t0_); }
  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  int span_index() const noexcept { return span_.index(); }

 private:
  Span span_;
  double* total_;
  Clock::time_point t0_;
};

}  // namespace

JobLayers run_stages(ProofSession& session, bool prepare,
                     const SymbolChannel& channel, SpanRecorder* rec,
                     std::uint64_t job, const std::string& job_name) {
  JobLayers t;
  const std::size_t n = session.num_primes();
  int root = -1;
  {
    StageTimer timer(rec, job_name, job, &t.wall_s);
    root = timer.span_index();
    if (prepare) {
      StageTimer stage(rec, "session.prepare", job, &t.prepare_s);
      for (std::size_t pi = 0; pi < n; ++pi) session.prepare_prime(pi);
    }
    {
      StageTimer stage(rec, "session.transport", job, &t.transport_s);
      for (std::size_t pi = 0; pi < n; ++pi) {
        session.transport_prime(pi, channel);
      }
    }
    {
      StageTimer stage(rec, "session.decode", job, &t.decode_s);
      for (std::size_t pi = 0; pi < n; ++pi) session.decode_prime(pi);
    }
    {
      StageTimer stage(rec, "session.verify", job, &t.verify_s);
      for (std::size_t pi = 0; pi < n; ++pi) session.verify_prime(pi);
    }
    {
      StageTimer stage(rec, "session.recover", job, &t.recover_s);
      for (std::size_t pi = 0; pi < n; ++pi) session.recover_prime(pi);
    }
    t.report = session.report();
  }
  if (rec != nullptr) t.attributed_share = rec->attributed_share(root);
  return t;
}

void run_layers(const ProofSession& session, const CamelotProblem& problem,
                const Caches& caches, SpanRecorder& rec, std::uint64_t job,
                JobLayers& out) {
  Span pass(&rec, "layers", job);
  const ClusterConfig& cfg = session.config();
  const std::size_t e = session.plan().code_length;
  const std::size_t d = problem.spec().degree_bound;
  const std::size_t k = cfg.num_nodes;
  // The systematic path evaluates only the message prefix [0, d+1);
  // the parity tail comes from the code's extension.
  const std::size_t m = cfg.systematic_encode && d + 1 < e ? d + 1 : e;
  std::vector<double> node_s(k, 0.0);

  for (std::size_t pi = 0; pi < session.num_primes(); ++pi) {
    // The same handle and code the session was built with (cache hits).
    const u64 q = session.prime(pi);
    const FieldOps ops = caches.fields->ops(q, 2 * e, cfg.backend);
    const std::shared_ptr<const ReedSolomonCode> code =
        caches.codes->code(ops, d, e);
    const std::vector<u64>& sent = session.sent(pi);

    for (std::size_t j = 0; j < k; ++j) {
      // Node j's contiguous chunk [lo, hi), clamped to the prefix.
      const std::size_t lo = (j * e + k - 1) / k;
      const std::size_t hi = std::min(e, ((j + 1) * e + k - 1) / k);
      const std::size_t mhi = std::min(hi, m);
      if (mhi <= lo) continue;
      const std::span<const u64> points(code->points().data() + lo, mhi - lo);
      Span span(&rec, "evaluator.node", job);
      const auto t0 = Clock::now();
      std::unique_ptr<Evaluator> ev = problem.make_evaluator(ops);
      const std::vector<u64> values = ev->evaluate_points(points);
      const double dt = seconds_since(t0);
      node_s[j] += dt;
      out.evaluator_busy_s += dt;
      out.evaluator_points += double(mhi - lo);
      const auto first = sent.begin() + static_cast<long>(lo);
      out.agrees &= std::equal(values.begin(), values.end(), first);
    }

    if (m < e) {
      const std::span<const u64> message(sent.data(), m);
      Span span(&rec, "rs.parity", job);
      const auto t0 = Clock::now();
      const std::vector<u64> word = code->encode_systematic(message);
      out.parity_s += seconds_since(t0);
      out.agrees &= word == sent;
    }

    const std::vector<u64>& received = session.received(pi);
    {
      Span span(&rec, "rs.decode", job);
      const auto t0 = Clock::now();
      const GaoResult g = gao_decode(*code, received);
      out.rs_decode_s += seconds_since(t0);
      out.quotient_steps += double(g.quotient_steps);
      out.hgcd_calls += double(g.hgcd_calls);
      out.corrected_symbols += double(g.error_locations.size());
      out.agrees &= g.status == DecodeStatus::kOk && g.corrected == sent;
    }
    {
      Span span(&rec, "rs.interp", job);
      const auto t0 = Clock::now();
      const Poly p = code->interpolate_received(received);
      out.interp_s += seconds_since(t0);
      g_sink = p.coeff(0);
    }
  }
  out.evaluator_node_max_s = *std::max_element(node_s.begin(), node_s.end());

  const u64 q0 = session.prime(0);
  const FieldOps ops = caches.fields->ops(q0, 2 * e, cfg.backend);
  {
    Span span(&rec, "poly.ntt", job);
    out.ntt_us = ntt_probe_us(ops, std::bit_ceil(e));
  }
  {
    Span span(&rec, "field.mul", job);
    out.mul_ns = mul_probe_ns(ops);
  }
}

void LayerReport::add(const JobLayers& job) {
  for (const LayerMetric& m : kMeans) sums_.*m.field += job.*m.field;
  sums_.wall_s += job.wall_s;
  ++jobs_;
}

void LayerReport::write(RunResult& r, double untraced_job_s) const {
  const double n = std::max(1.0, double(jobs_));
  for (const LayerMetric& m : kMeans) {
    r.set(m.name, sums_.*m.field / n, m.unit, jobs_);
  }
  const double verify = ratio(sums_.verify_s, sums_.evaluator_node_max_s);
  r.set("verify.over_node_ratio", verify, "ratio", jobs_);
  const double overhead = ratio(sums_.wall_s / n, untraced_job_s) - 1.0;
  r.set("trace.overhead", overhead, "ratio", jobs_);
}

}  // namespace camelot::e2e
