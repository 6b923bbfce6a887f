#include "core/shard.hpp"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "core/erasure_stream.hpp"
#include "core/prime_plan.hpp"
#include "core/proof_session.hpp"
#include "apps/ov.hpp"
#include "count/clique_camelot.hpp"
#include "count/triangle_camelot.hpp"
#include "field/crt.hpp"
#include "graph/generators.hpp"
#include "linalg/tensor.hpp"
#include "obs/trace.hpp"

namespace camelot {

namespace {

// ---- Wire encoding -------------------------------------------------------
// Little-endian, append-only writer / cursor reader over std::string
// payloads. Fixed-width integers, 8-byte doubles (bit pattern), and
// u32-count-prefixed strings and u64 vectors cover every frame.
//
// Every length on the wire is untrusted: a frame may not announce more
// than kMaxFrameBytes, and a count may not promise more elements than
// the bytes left in its frame, so nothing is allocated from a length
// before the bytes behind it are known to exist.
constexpr std::uint32_t kMaxFrameBytes = 64u << 20;

// A problem spec is untrusted in the same way: about 20 bytes can name
// a graph of 10^6 vertices or a clique matrix of 10^11 rows.
// make_problem_from_spec checks each raw field against these caps
// before anything is built, and the built problem's degree bound
// against kMaxSpecDegree (which bounds the code length, and with it
// every per-prime buffer of the session).
constexpr u64 kMaxSpecVertices = 1024;         // n: adjacency <= 128 KiB
constexpr u64 kMaxSpecCliqueRows = 256;        // C(n, k/6) chi rows
constexpr u64 kMaxSpecOvCells = u64{1} << 20;  // n * t bits per matrix
constexpr u64 kMaxSpecDegree = u64{1} << 16;   // spec().degree_bound

std::uint32_t checked_frame_length(const unsigned char* hdr) {
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) len |= std::uint32_t(hdr[i]) << (8 * i);
  if (len > kMaxFrameBytes) {
    throw std::runtime_error("shard wire: frame length exceeds the cap");
  }
  return len;
}

void put_u8(std::string& out, unsigned char v) {
  out.push_back(static_cast<char>(v));
}

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_f64(std::string& out, double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(out, bits);
}

void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out.append(s);
}

// Both std::size_t and u64 vectors ship as u64 on the wire (the two
// types coincide on this platform, hence a template, not overloads).
template <typename T>
void put_vec_u64(std::string& out, const std::vector<T>& v) {
  put_u32(out, static_cast<std::uint32_t>(v.size()));
  for (T x : v) put_u64(out, static_cast<std::uint64_t>(x));
}

class WireReader {
 public:
  explicit WireReader(const std::string& payload) : s_(payload) {}

  unsigned char u8() {
    need(1);
    return static_cast<unsigned char>(s_[pos_++]);
  }

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= std::uint32_t(static_cast<unsigned char>(s_[pos_ + i])) << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64v() {
    need(8);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= std::uint64_t(static_cast<unsigned char>(s_[pos_ + i])) << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() {
    const std::uint64_t bits = u64v();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string out = s_.substr(pos_, n);
    pos_ += n;
    return out;
  }

  // Reads a u32 element count and checks that `n` elements of
  // `elem_bytes` each fit in what is left of the frame.
  std::uint32_t count(std::size_t elem_bytes) {
    const std::uint32_t n = u32();
    if (n > (s_.size() - pos_) / elem_bytes) {
      throw std::runtime_error("shard wire: count exceeds frame");
    }
    return n;
  }

  std::vector<u64> vec_u64() {
    const std::uint32_t n = count(8);
    std::vector<u64> out(n);
    for (std::uint32_t i = 0; i < n; ++i) out[i] = u64v();
    return out;
  }

  // A one-byte enum, rejected when past its last enumerator.
  template <typename E>
  E enum8(E last) {
    const unsigned char v = u8();
    if (v > static_cast<unsigned char>(last)) {
      throw std::runtime_error("shard wire: enum byte out of range");
    }
    return static_cast<E>(v);
  }

  std::vector<std::size_t> vec_size() {
    const std::uint32_t n = count(8);
    std::vector<std::size_t> out(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      out[i] = static_cast<std::size_t>(u64v());
    }
    return out;
  }

  bool done() const { return pos_ == s_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > s_.size()) {
      throw std::runtime_error("shard wire: truncated frame");
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---- Frame payloads ------------------------------------------------------

std::string encode_submit(const ShardJob& job,
                          const std::vector<std::size_t>& prime_indices) {
  std::string p;
  put_u8(p, static_cast<unsigned char>(ShardFrame::kSubmit));
  put_str(p, job.problem_spec);
  const ClusterConfig& c = job.config;
  put_u64(p, c.num_nodes);
  put_f64(p, c.redundancy);
  put_u32(p, c.num_threads);
  put_u64(p, c.verification_trials);
  put_u64(p, c.num_primes);
  put_u64(p, c.seed);
  put_u8(p, static_cast<unsigned char>(c.backend));
  put_u8(p, c.systematic_encode ? 1 : 0);
  put_u64(p, c.repair_budget);
  put_f64(p, job.loss_rate);
  put_u64(p, job.loss_seed);
  put_u8(p, job.adversary ? 1 : 0);
  put_vec_u64(p, job.corrupt_nodes);
  put_u8(p, static_cast<unsigned char>(job.strategy));
  put_u64(p, job.adversary_seed);
  put_vec_u64(p, prime_indices);
  return p;
}

struct SubmitFrame {
  ShardJob job;
  std::vector<std::size_t> prime_indices;
};

SubmitFrame decode_submit(WireReader& r) {
  SubmitFrame f;
  f.job.problem_spec = r.str();
  ClusterConfig& c = f.job.config;
  c.num_nodes = static_cast<std::size_t>(r.u64v());
  c.redundancy = r.f64();
  c.num_threads = r.u32();
  c.verification_trials = static_cast<std::size_t>(r.u64v());
  c.num_primes = static_cast<std::size_t>(r.u64v());
  c.seed = r.u64v();
  c.backend = r.enum8(FieldBackend::kMontgomeryAvx512);
  c.systematic_encode = r.u8() != 0;
  c.repair_budget = static_cast<std::size_t>(r.u64v());
  f.job.loss_rate = r.f64();
  f.job.loss_seed = r.u64v();
  f.job.adversary = r.u8() != 0;
  f.job.corrupt_nodes = r.vec_size();
  f.job.strategy = r.enum8(ByzantineStrategy::kColludingPolynomial);
  f.job.adversary_seed = r.u64v();
  f.prime_indices = r.vec_size();
  return f;
}

// One settled prime: its plan index, the PrimeRunReport, and the
// node-stats delta this prime added to the session (so the
// coordinator counts each prime's evaluator work exactly once even
// when a later shard death forces retries elsewhere).
std::string encode_prime_report(std::size_t prime_index,
                                const PrimeRunReport& pr,
                                const std::vector<NodeStats>& delta) {
  std::string p;
  put_u8(p, static_cast<unsigned char>(ShardFrame::kPrimeReport));
  put_u64(p, prime_index);
  put_u64(p, pr.prime);
  put_u8(p, static_cast<unsigned char>(pr.decode_status));
  put_u8(p, pr.verified ? 1 : 0);
  put_vec_u64(p, pr.corrected_symbols);
  put_vec_u64(p, pr.implicated_nodes);
  put_u64(p, pr.decode_quotient_steps);
  put_u64(p, pr.decode_hgcd_calls);
  put_u64(p, pr.repair_rounds);
  put_u64(p, pr.repaired_symbols);
  put_vec_u64(p, pr.answer_residues);
  put_u32(p, static_cast<std::uint32_t>(delta.size()));
  for (const NodeStats& ns : delta) {
    put_u64(p, ns.node_id);
    put_u64(p, ns.symbols_computed);
    put_f64(p, ns.seconds);
  }
  return p;
}

struct PrimeReportFrame {
  std::size_t prime_index = 0;
  PrimeRunReport report;
  std::vector<NodeStats> delta;
};

PrimeReportFrame decode_prime_report(WireReader& r) {
  PrimeReportFrame f;
  f.prime_index = static_cast<std::size_t>(r.u64v());
  f.report.prime = r.u64v();
  f.report.decode_status = r.enum8(DecodeStatus::kDecodeFailure);
  f.report.verified = r.u8() != 0;
  f.report.corrected_symbols = r.vec_size();
  f.report.implicated_nodes = r.vec_size();
  f.report.decode_quotient_steps = static_cast<std::size_t>(r.u64v());
  f.report.decode_hgcd_calls = static_cast<std::size_t>(r.u64v());
  f.report.repair_rounds = static_cast<std::size_t>(r.u64v());
  f.report.repaired_symbols = static_cast<std::size_t>(r.u64v());
  f.report.answer_residues = r.vec_u64();
  const std::uint32_t n = r.count(24);  // node id, symbols, seconds
  f.delta.resize(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    f.delta[i].node_id = static_cast<std::size_t>(r.u64v());
    f.delta[i].symbols_computed = static_cast<std::size_t>(r.u64v());
    f.delta[i].seconds = r.f64();
  }
  return f;
}

std::string tagged(ShardFrame tag) {
  std::string p;
  put_u8(p, static_cast<unsigned char>(tag));
  return p;
}

std::string tagged_str(ShardFrame tag, const std::string& body) {
  std::string p = tagged(tag);
  put_str(p, body);
  return p;
}

// ---- fd plumbing ---------------------------------------------------------

bool write_all(int fd, const char* data, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool write_frame(int fd, const std::string& payload) {
  std::string framed;
  framed.reserve(4 + payload.size());
  put_u32(framed, static_cast<std::uint32_t>(payload.size()));
  framed.append(payload);
  return write_all(fd, framed.data(), framed.size());
}

// Blocking whole-frame read (worker side; the worker is sequential).
// Returns nullopt on EOF at a frame boundary, throws mid-frame.
std::optional<std::string> read_frame(int fd) {
  unsigned char hdr[4];
  std::size_t got = 0;
  while (got < 4) {
    const ssize_t r = ::read(fd, hdr + got, 4 - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("shard wire: read failed");
    }
    if (r == 0) {
      if (got == 0) return std::nullopt;
      throw std::runtime_error("shard wire: EOF inside frame header");
    }
    got += static_cast<std::size_t>(r);
  }
  const std::uint32_t len = checked_frame_length(hdr);
  std::string payload(len, '\0');
  got = 0;
  while (got < len) {
    const ssize_t r = ::read(fd, payload.data() + got, len - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("shard wire: read failed");
    }
    if (r == 0) throw std::runtime_error("shard wire: EOF inside frame");
    got += static_cast<std::size_t>(r);
  }
  return payload;
}

void ignore_sigpipe_once() {
  static const int installed = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return 0;
  }();
  (void)installed;
}

}  // namespace

// ---- Problem factory -----------------------------------------------------

namespace {

// A spec field must be one whole unsigned decimal token. strtoull and
// strtod alone accept leading blanks, a sign (wrapping "-5" to
// 2^64 - 5), exponents and trailing junk ("12x" reads as 12).
[[noreturn]] void reject_spec_field(const std::string& field) {
  throw std::invalid_argument("problem spec: malformed field '" + field + "'");
}

u64 spec_uint(const std::string& field) {
  if (field.empty() ||
      field.find_first_not_of("0123456789") != std::string::npos) {
    reject_spec_field(field);
  }
  errno = 0;
  const u64 v = std::strtoull(field.c_str(), nullptr, 10);
  if (errno == ERANGE) reject_spec_field(field);
  return v;
}

// Digits with at most one '.'; strtod must consume all of them.
double spec_fraction(const std::string& field) {
  if (field.find_first_not_of("0123456789.") != std::string::npos) {
    reject_spec_field(field);
  }
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(field.c_str(), &end);
  if (end == field.c_str() || *end != '\0' || errno == ERANGE) {
    reject_spec_field(field);
  }
  return v;
}

void check_spec_cap(u64 value, u64 cap, const char* what) {
  if (value > cap) {
    throw std::invalid_argument(std::string("problem spec: ") + what +
                                " exceeds the cap of " + std::to_string(cap));
  }
}

// Vertex count within kMaxSpecVertices, then 0 < m <= n(n-1)/2 (no
// overflow: n is capped first).
void check_spec_graph(u64 n, u64 m) {
  check_spec_cap(n, kMaxSpecVertices, "vertex count");
  if (n == 0 || m == 0) {
    throw std::invalid_argument("problem spec: graph needs n, m > 0");
  }
  check_spec_cap(m, n * (n - 1) / 2, "edge count");
}

// C(n, s), or cap + 1 as soon as it passes cap. For s <= n/2 the
// partial products C(n, i) grow with i, so the early exit is exact,
// and each step stays below (cap + 1) * n.
u64 binomial_capped(u64 n, u64 s, u64 cap) {
  if (s > n) return 0;
  s = std::min(s, n - s);
  u64 c = 1;
  for (u64 i = 0; i < s; ++i) {
    c = c * (n - i) / (i + 1);  // exact: C(n, i) (n - i) = C(n, i+1) (i+1)
    if (c > cap) return cap + 1;
  }
  return c;
}

std::unique_ptr<CamelotProblem> build_problem_from_spec(
    const std::string& spec) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (parts.size() == 4 && parts[0] == "triangle") {
    const std::size_t n = spec_uint(parts[1]);
    const std::size_t m = spec_uint(parts[2]);
    const u64 seed = spec_uint(parts[3]);
    check_spec_graph(n, m);
    Graph g = gnm(n, m, seed);
    return std::make_unique<TriangleCountProblem>(g,
                                                  strassen_decomposition());
  }
  if (parts.size() == 5 && parts[0] == "clique") {
    const std::size_t n = spec_uint(parts[1]);
    const std::size_t m = spec_uint(parts[2]);
    const std::size_t k = spec_uint(parts[3]);
    const u64 seed = spec_uint(parts[4]);
    check_spec_graph(n, m);
    if (k == 0 || k % 6 != 0) {
      throw std::invalid_argument("problem spec: clique needs 6 | k, k > 0");
    }
    if (k / 6 > n) {
      throw std::invalid_argument("problem spec: clique needs k/6 <= n");
    }
    check_spec_cap(binomial_capped(n, k / 6, kMaxSpecCliqueRows),
                   kMaxSpecCliqueRows, "clique row count C(n, k/6)");
    Graph g = gnm(n, m, seed);
    return std::make_unique<CliqueCountProblem>(g, k,
                                                strassen_decomposition());
  }
  if (parts.size() == 5 && parts[0] == "ov") {
    const std::size_t n = spec_uint(parts[1]);
    const std::size_t t = spec_uint(parts[2]);
    const double density = spec_fraction(parts[3]);
    const u64 seed = spec_uint(parts[4]);
    if (n == 0 || t == 0) {
      throw std::invalid_argument("problem spec: ov needs n, t > 0");
    }
    // n * t, saturated past the cap instead of wrapping.
    const u64 cells = t > kMaxSpecOvCells / n ? kMaxSpecOvCells + 1 : n * t;
    check_spec_cap(cells, kMaxSpecOvCells, "ov cell count n * t");
    if (!(density >= 0.0) || density > 1.0) {
      throw std::invalid_argument("problem spec: ov density in [0, 1]");
    }
    return std::make_unique<OrthogonalVectorsProblem>(
        BoolMatrix::random(n, t, density, seed),
        BoolMatrix::random(n, t, density, seed + 1));
  }
  throw std::invalid_argument("unknown problem spec: " + spec);
}

}  // namespace

std::unique_ptr<CamelotProblem> make_problem_from_spec(
    const std::string& spec) {
  std::unique_ptr<CamelotProblem> problem = build_problem_from_spec(spec);
  check_spec_cap(problem->spec().degree_bound, kMaxSpecDegree,
                 "proof degree bound");
  return problem;
}

// ---- Worker --------------------------------------------------------------

int run_shard_worker(int in_fd, int out_fd, std::size_t crash_after_primes) {
  auto registry = std::make_shared<obs::Registry>();
  obs::Counter& primes_counter =
      registry->counter("camelot_shard_primes_total");
  obs::Histogram& job_latency =
      registry->histogram("camelot_job_latency_seconds");
  std::size_t primes_settled = 0;

  try {
    while (true) {
      std::optional<std::string> payload = read_frame(in_fd);
      if (!payload) return 0;  // coordinator closed its end: clean exit
      WireReader r(*payload);
      const auto tag = static_cast<ShardFrame>(r.u8());
      switch (tag) {
        case ShardFrame::kShutdown:
          return 0;
        case ShardFrame::kObsRequest: {
          const std::string json = obs::render_json(*registry);
          if (!write_frame(out_fd,
                           tagged_str(ShardFrame::kObsSnapshot, json))) {
            return 1;
          }
          break;
        }
        case ShardFrame::kSubmit: {
          const auto t0 = std::chrono::steady_clock::now();
          SubmitFrame submit = decode_submit(r);
          std::unique_ptr<CamelotProblem> problem =
              make_problem_from_spec(submit.job.problem_spec);
          ProofSession session(*problem, submit.job.config, nullptr, nullptr,
                               nullptr, registry);
          const ShardJob& job = submit.job;
          const ChannelStack channel(
              job.adversary ? std::make_shared<const ByzantineAdversary>(
                                  job.corrupt_nodes, job.strategy,
                                  job.adversary_seed)
                            : nullptr,
              LossSpec{job.loss_rate, job.loss_seed});
          // Node-stats deltas come from successive report() snapshots;
          // primes run sequentially here, so the difference is exactly
          // the work the prime just settled added.
          std::vector<NodeStats> prev = session.report().node_stats;
          for (std::size_t pi : submit.prime_indices) {
            session.run_prime_streaming(pi, channel.top());
            std::vector<NodeStats> cur = session.report().node_stats;
            std::vector<NodeStats> delta = cur;
            for (std::size_t j = 0; j < delta.size() && j < prev.size();
                 ++j) {
              delta[j].symbols_computed -= prev[j].symbols_computed;
              delta[j].seconds -= prev[j].seconds;
            }
            prev = std::move(cur);
            if (!write_frame(out_fd,
                             encode_prime_report(
                                 pi, session.prime_report(pi), delta))) {
              return 1;
            }
            primes_counter.inc();
            ++primes_settled;
            if (crash_after_primes != 0 &&
                primes_settled >= crash_after_primes) {
              // Fault-injection hook: die the way a crashed worker
              // does — no shutdown handshake, no stack unwinding.
              ::_exit(42);
            }
          }
          job_latency.observe(
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count());
          std::string done = tagged(ShardFrame::kSubmitDone);
          put_u64(done, primes_settled);
          if (!write_frame(out_fd, done)) return 1;
          break;
        }
        default:
          throw std::runtime_error("shard worker: unexpected frame tag");
      }
    }
  } catch (const std::exception& e) {
    (void)write_frame(out_fd, tagged_str(ShardFrame::kError, e.what()));
    return 1;
  }
}

// ---- Coordinator ---------------------------------------------------------

ShardCoordinator::ShardCoordinator(ShardOptions options)
    : options_(std::move(options)),
      metrics_(options_.metrics ? options_.metrics
                                : std::make_shared<obs::Registry>()) {
  if (options_.num_shards == 0) {
    throw std::invalid_argument("ShardCoordinator: need at least one shard");
  }
  ignore_sigpipe_once();
  if (options_.shardd_path.empty()) {
    const char* env = std::getenv("CAMELOT_SHARDD");
    options_.shardd_path = (env && *env) ? env : "./shardd";
  }
  retries_counter_ = &metrics_->counter("camelot_shard_retried_primes_total");
  deaths_counter_ = &metrics_->counter("camelot_shard_deaths_total");
  job_latency_ = &metrics_->histogram("camelot_job_latency_seconds");
  shards_.resize(options_.num_shards);
  last_scrapes_.resize(options_.num_shards);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].bandwidth = &metrics_->gauge(
        "camelot_shard_bandwidth_bytes_shard" + std::to_string(i));
    spawn(i);
  }
}

ShardCoordinator::~ShardCoordinator() {
  for (Shard& s : shards_) {
    if (s.alive) {
      (void)write_frame(s.to_fd, tagged(ShardFrame::kShutdown));
    }
    if (s.to_fd >= 0) ::close(s.to_fd);
    if (s.from_fd >= 0) ::close(s.from_fd);
    if (s.pid > 0) {
      int status = 0;
      (void)::waitpid(s.pid, &status, 0);
    }
  }
}

std::size_t ShardCoordinator::live_shards() const noexcept {
  std::size_t n = 0;
  for (const Shard& s : shards_) n += s.alive ? 1 : 0;
  return n;
}

void ShardCoordinator::spawn(std::size_t index) {
  int to_pipe[2];    // coordinator writes, worker stdin
  int from_pipe[2];  // worker stdout, coordinator reads
  if (::pipe(to_pipe) != 0 || ::pipe(from_pipe) != 0) {
    throw std::runtime_error("ShardCoordinator: pipe() failed");
  }
  const bool inject_crash = index == options_.crash_shard &&
                            options_.crash_after_primes != 0;
  const pid_t pid = ::fork();
  if (pid < 0) {
    throw std::runtime_error("ShardCoordinator: fork() failed");
  }
  if (pid == 0) {
    ::dup2(to_pipe[0], STDIN_FILENO);
    ::dup2(from_pipe[1], STDOUT_FILENO);
    ::close(to_pipe[0]);
    ::close(to_pipe[1]);
    ::close(from_pipe[0]);
    ::close(from_pipe[1]);
    std::string crash_arg =
        "--crash-after-primes=" + std::to_string(options_.crash_after_primes);
    const char* argv[3] = {options_.shardd_path.c_str(),
                           inject_crash ? crash_arg.c_str() : nullptr,
                           nullptr};
    ::execv(options_.shardd_path.c_str(), const_cast<char* const*>(argv));
    // exec failed: nothing sane to do in the forked child but vanish;
    // the coordinator sees EOF and reports the death.
    ::_exit(127);
  }
  ::close(to_pipe[0]);
  ::close(from_pipe[1]);
  // Non-blocking reads so the poll loop can drain whatever is there.
  const int flags = ::fcntl(from_pipe[0], F_GETFL, 0);
  ::fcntl(from_pipe[0], F_SETFL, flags | O_NONBLOCK);
  Shard& s = shards_[index];
  s.pid = pid;
  s.to_fd = to_pipe[1];
  s.from_fd = from_pipe[0];
  s.alive = true;
  CAMELOT_TRACE_MSG(obs::kTraceSched, "shard %zu spawned pid=%d", index,
                    static_cast<int>(pid));
}

void ShardCoordinator::send_frame(Shard& s, const std::string& payload) {
  if (!s.alive) return;
  if (!write_frame(s.to_fd, payload)) {
    mark_dead(s);
    return;
  }
  s.bytes_sent += 4 + payload.size();
  update_bandwidth(s);
}

bool ShardCoordinator::pump(Shard& s) {
  char buf[4096];
  while (true) {
    const ssize_t r = ::read(s.from_fd, buf, sizeof(buf));
    if (r > 0) {
      s.rbuf.append(buf, static_cast<std::size_t>(r));
      s.bytes_received += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) {
      update_bandwidth(s);
      return false;  // EOF — worker is gone once rbuf drains
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      update_bandwidth(s);
      return true;
    }
    update_bandwidth(s);
    return false;
  }
}

std::optional<std::string> ShardCoordinator::take_frame(Shard& s) {
  if (s.rbuf.size() < 4) return std::nullopt;
  // A worker announcing an oversized frame is broken; throw like any
  // other malformed frame (the caller marks the worker dead) instead
  // of buffering toward it.
  const std::uint32_t len = checked_frame_length(
      reinterpret_cast<const unsigned char*>(s.rbuf.data()));
  if (s.rbuf.size() < 4 + std::size_t(len)) return std::nullopt;
  std::string payload = s.rbuf.substr(4, len);
  s.rbuf.erase(0, 4 + std::size_t(len));
  return payload;
}

void ShardCoordinator::mark_dead(Shard& s) {
  if (!s.alive) return;
  s.alive = false;
  deaths_counter_->inc();
  if (s.to_fd >= 0) {
    ::close(s.to_fd);
    s.to_fd = -1;
  }
  if (s.pid > 0) {
    // A worker declared dead may still be running (it sent a bad
    // frame, or stopped answering a scrape); reaping it must not wait
    // on it. Killing an already-exited child is harmless.
    (void)::kill(s.pid, SIGKILL);
    int status = 0;
    (void)::waitpid(s.pid, &status, 0);
    s.pid = -1;
  }
  CAMELOT_TRACE_MSG(obs::kTraceSched, "shard died, %zu primes pending",
                    s.pending.size());
}

void ShardCoordinator::update_bandwidth(Shard& s) {
  s.bandwidth->set(
      static_cast<std::int64_t>(s.bytes_sent + s.bytes_received));
}

RunReport ShardCoordinator::run(const ShardJob& job) {
  const auto t0 = std::chrono::steady_clock::now();
  // The coordinator mirrors the worker's deterministic plan derivation
  // so it can lay reports out in plan order and CRT across the same
  // primes without trusting any single worker.
  std::unique_ptr<CamelotProblem> problem =
      make_problem_from_spec(job.problem_spec);
  const ProofSpec spec = problem->spec();
  const PrimePlan plan =
      plan_primes(spec, job.config.redundancy, job.config.num_primes);
  const std::size_t num_primes = plan.primes.size();

  std::vector<std::optional<PrimeRunReport>> reports(num_primes);
  std::vector<NodeStats> node_stats(job.config.num_nodes);
  for (std::size_t j = 0; j < node_stats.size(); ++j) {
    node_stats[j].node_id = j;
  }
  double worker_seconds = 0.0;

  // Round-robin partition over the shards alive right now.
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    if (shards_[i].alive) live.push_back(i);
  }
  if (live.empty()) {
    throw std::runtime_error("ShardCoordinator: no live shards");
  }
  std::vector<std::vector<std::size_t>> assignment(shards_.size());
  for (std::size_t pi = 0; pi < num_primes; ++pi) {
    assignment[live[pi % live.size()]].push_back(pi);
  }

  std::size_t settled = 0;
  auto handle_report = [&](Shard& s, WireReader& r) {
    PrimeReportFrame f = decode_prime_report(r);
    if (f.prime_index >= num_primes) {
      throw std::runtime_error("ShardCoordinator: prime index out of range");
    }
    auto it = std::find(s.pending.begin(), s.pending.end(), f.prime_index);
    if (it != s.pending.end()) s.pending.erase(it);
    if (reports[f.prime_index]) return;  // duplicate after a retry race
    reports[f.prime_index] = std::move(f.report);
    ++settled;
    for (const NodeStats& d : f.delta) {
      if (d.node_id < node_stats.size()) {
        node_stats[d.node_id].symbols_computed += d.symbols_computed;
        node_stats[d.node_id].seconds += d.seconds;
        worker_seconds += d.seconds;
      }
    }
  };

  auto redistribute = [&](Shard& dead) {
    std::vector<std::size_t> orphans(dead.pending.begin(),
                                     dead.pending.end());
    dead.pending.clear();
    // Reports may still sit in the pipe buffer of a freshly-dead
    // worker; only truly unreported primes are re-dispatched, and the
    // first report to arrive wins either way.
    orphans.erase(std::remove_if(orphans.begin(), orphans.end(),
                                 [&](std::size_t pi) {
                                   return reports[pi].has_value();
                                 }),
                  orphans.end());
    if (orphans.empty()) return;
    std::vector<std::size_t> survivors;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].alive) survivors.push_back(i);
    }
    if (survivors.empty()) {
      throw std::runtime_error(
          "ShardCoordinator: every shard died with primes outstanding");
    }
    std::vector<std::vector<std::size_t>> retry(shards_.size());
    for (std::size_t j = 0; j < orphans.size(); ++j) {
      retry[survivors[j % survivors.size()]].push_back(orphans[j]);
    }
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (retry[i].empty()) continue;
      for (std::size_t pi : retry[i]) shards_[i].pending.push_back(pi);
      send_frame(shards_[i], encode_submit(job, retry[i]));
      retried_primes_ += retry[i].size();
      retries_counter_->inc(retry[i].size());
      CAMELOT_TRACE_MSG(obs::kTraceSched,
                        "retrying %zu primes on shard %zu", retry[i].size(),
                        i);
    }
  };

  // A shard that dies holding primes, found at EOF, at a bad frame or
  // by a failed write (send_frame marks it dead and leaves the primes
  // it was handed pending), has them re-dealt over the survivors. A
  // re-deal's own write can fail too, so repeat until no dead shard
  // holds any.
  auto redeal_dead = [&] {
    for (bool again = true; again;) {
      again = false;
      for (Shard& d : shards_) {
        if (d.alive || d.pending.empty()) continue;
        redistribute(d);
        again = true;
      }
    }
  };

  // Pending lists are per job: a shard without primes this time starts
  // empty too, so nothing left from an earlier job is ever re-dealt.
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].pending.assign(assignment[i].begin(), assignment[i].end());
    if (!assignment[i].empty()) {
      send_frame(shards_[i], encode_submit(job, assignment[i]));
    }
  }
  redeal_dead();

  while (settled < num_primes) {
    std::vector<pollfd> fds;
    std::vector<std::size_t> fd_shard;
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (!shards_[i].alive) continue;
      fds.push_back({shards_[i].from_fd, POLLIN, 0});
      fd_shard.push_back(i);
    }
    if (fds.empty()) {
      throw std::runtime_error(
          "ShardCoordinator: every shard died with primes outstanding");
    }
    const int rc = ::poll(fds.data(), fds.size(), /*ms=*/30000);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("ShardCoordinator: poll() failed");
    }
    if (rc == 0) {
      throw std::runtime_error(
          "ShardCoordinator: timed out waiting for shard frames");
    }
    for (std::size_t k = 0; k < fds.size(); ++k) {
      if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Shard& s = shards_[fd_shard[k]];
      const bool open = pump(s);
      bool fatal = !open;
      // A malformed frame (oversize header, unknown tag, truncated or
      // out-of-range payload) means the worker is broken: it dies like
      // a crashed one, and its pending primes retry on the survivors.
      try {
        while (auto payload = take_frame(s)) {
          WireReader r(*payload);
          const auto tag = static_cast<ShardFrame>(r.u8());
          if (tag == ShardFrame::kPrimeReport) {
            handle_report(s, r);
          } else if (tag == ShardFrame::kSubmitDone) {
            // Informational; pending should already be empty.
          } else if (tag == ShardFrame::kError) {
            CAMELOT_TRACE_MSG(obs::kTraceSched, "shard error: %s",
                              r.str().c_str());
            fatal = true;
          } else if (tag == ShardFrame::kObsSnapshot) {
            // Stale scrape response; ignore.
            (void)r.str();
          } else {
            throw std::runtime_error(
                "ShardCoordinator: unexpected frame from worker");
          }
        }
      } catch (const std::runtime_error& e) {
        CAMELOT_TRACE_MSG(obs::kTraceSched, "shard sent a bad frame: %s",
                          e.what());
        fatal = true;
      }
      if (fatal && s.alive) {
        mark_dead(s);
        redeal_dead();
      }
    }
  }

  // ---- Assemble the RunReport exactly as ProofSession::report() does.
  RunReport out;
  out.proof_symbols = spec.degree_bound + 1;
  out.code_length = plan.code_length;
  out.num_primes = num_primes;
  out.node_stats = std::move(node_stats);
  out.wall_seconds = worker_seconds;
  out.per_prime.reserve(num_primes);
  bool complete = true;
  for (std::size_t pi = 0; pi < num_primes; ++pi) {
    const PrimeRunReport& pr = *reports[pi];
    complete = complete && pr.decode_status == DecodeStatus::kOk &&
               pr.verified && pr.answer_residues.size() == spec.answer_count;
    out.per_prime.push_back(pr);
  }
  out.success = complete;
  if (out.success) {
    out.answers.reserve(spec.answer_count);
    for (std::size_t a = 0; a < spec.answer_count; ++a) {
      std::vector<u64> residues(num_primes);
      for (std::size_t pi = 0; pi < num_primes; ++pi) {
        residues[pi] = out.per_prime[pi].answer_residues[a];
      }
      out.answers.push_back(spec.answers_signed
                                ? crt_reconstruct_signed(residues, plan.primes)
                                : crt_reconstruct(residues, plan.primes));
    }
  }
  job_latency_->observe(
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count());
  return out;
}

obs::Registry::Snapshot ShardCoordinator::fleet_snapshot() {
  obs::Registry::Snapshot fleet = metrics_->snapshot();
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& s = shards_[i];
    last_scrapes_[i].clear();
    if (!s.alive) continue;
    send_frame(s, tagged(ShardFrame::kObsRequest));
    if (!s.alive) continue;  // send_frame may have detected the death
    // Wait for the kObsSnapshot answer, dispatching anything else the
    // worker had queued (a worker is sequential, so the snapshot is
    // the last frame it emits for this request). A malformed frame
    // kills the worker, as in run().
    try {
      bool got = false;
      while (!got) {
        pollfd pfd{s.from_fd, POLLIN, 0};
        const int rc = ::poll(&pfd, 1, /*ms=*/10000);
        if (rc <= 0) {
          mark_dead(s);
          break;
        }
        const bool open = pump(s);
        while (auto payload = take_frame(s)) {
          WireReader r(*payload);
          // Out-of-band leftovers (late kSubmitDone) are uninteresting
          // here.
          if (static_cast<ShardFrame>(r.u8()) == ShardFrame::kObsSnapshot) {
            last_scrapes_[i] = r.str();
            got = true;
            break;
          }
        }
        if (!open) {
          if (!got) mark_dead(s);
          break;
        }
      }
    } catch (const std::runtime_error&) {
      last_scrapes_[i].clear();
      mark_dead(s);
    }
    if (last_scrapes_[i].empty()) continue;
    // A scrape that does not parse, or whose histograms do not fit the
    // fleet's buckets, is a malformed frame too: that worker dies, the
    // rollup goes on without it. merge_snapshot commits all or nothing,
    // so a rejected scrape leaves `fleet` as it was.
    try {
      obs::merge_snapshot(fleet, obs::parse_json_snapshot(last_scrapes_[i]));
    } catch (const std::exception&) {
      last_scrapes_[i].clear();
      mark_dead(s);
    }
  }
  return fleet;
}

std::string ShardCoordinator::fleet_prometheus() {
  return obs::render_prometheus(fleet_snapshot());
}

std::string ShardCoordinator::fleet_json() {
  return obs::render_json(fleet_snapshot());
}

}  // namespace camelot
