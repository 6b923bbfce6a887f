#include "record.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <new>
#include <sstream>
#include <utility>

#include "field/field_ops.hpp"

// ---- operator-new interposition -------------------------------------------
// The whole replaceable family (plain, array, aligned, nothrow), so
// every allocation the library makes is seen; deletes pair on free.
namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return std::malloc(n != 0 ? n : 1);
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) noexcept {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  const std::size_t rounded = (n + align - 1) / align * align;
  return std::aligned_alloc(align, rounded != 0 ? rounded : align);
}
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t n, std::align_val_t a) {
  if (void* p = counted_aligned_alloc(n, static_cast<std::size_t>(a))) {
    return p;
  }
  throw std::bad_alloc();
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n);
}
void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace camelot::e2e {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::optional<double> quantile(std::vector<double> samples, double q,
                               std::size_t min_beyond) {
  const std::size_t n = samples.size();
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(n)));
  if (n == 0 || n < rank + min_beyond) return std::nullopt;
  std::sort(samples.begin(), samples.end());
  const double h = q * double(n - 1);
  const auto lo = static_cast<std::size_t>(h);
  const std::size_t hi = std::min(lo + 1, n - 1);
  return samples[lo] + (h - double(lo)) * (samples[hi] - samples[lo]);
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

void set_alloc_counting(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t allocs_counted() {
  return g_allocs.load(std::memory_order_relaxed);
}

// ---- spans ----------------------------------------------------------------

SpanRecorder::SpanRecorder() : t0_(Clock::now()) {}

int SpanRecorder::open(std::string name, std::uint64_t job) {
  Record r;
  r.name = std::move(name);
  r.start_s = seconds_since(t0_);
  r.parent = open_.empty() ? -1 : open_.back();
  r.job = job;
  records_.push_back(std::move(r));
  open_.push_back(static_cast<int>(records_.size()) - 1);
  return open_.back();
}

void SpanRecorder::close(int index) {
  records_[static_cast<std::size_t>(index)].end_s = seconds_since(t0_);
  // Spans close innermost-first (RAII), so the index is on top.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

double SpanRecorder::duration(int index) const {
  const Record& r = records_[static_cast<std::size_t>(index)];
  return r.end_s - r.start_s;
}

double SpanRecorder::attributed_share(int root) const {
  // Nested spans telescope: the self times of all descendants add up to
  // the durations of the root's direct children. A child is opened
  // after its parent, so it sits later in records_.
  double covered = 0.0;
  for (std::size_t i = std::size_t(root) + 1; i < records_.size(); ++i) {
    if (records_[i].parent == root) covered += duration(static_cast<int>(i));
  }
  const double wall = duration(root);
  return wall > 0.0 ? covered / wall : 0.0;
}

bool SpanRecorder::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << std::fixed << std::setprecision(3);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "{\"name\": \"" << r.name << "\", \"ph\": \"X\"";
    out << ", \"pid\": 1, \"tid\": 1";
    out << ", \"ts\": " << r.start_s * 1e6;
    out << ", \"dur\": " << (r.end_s - r.start_s) * 1e6;
    out << ", \"args\": {\"id\": " << i << ", \"parent\": " << r.parent;
    out << ", \"job\": " << r.job << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

Span::Span(SpanRecorder* rec, std::string name, std::uint64_t job) : rec_(rec) {
  if (rec_ != nullptr) index_ = rec_->open(std::move(name), job);
}

Span::~Span() {
  if (rec_ != nullptr) rec_->close(index_);
}

// ---- result ---------------------------------------------------------------

void RunResult::set(const std::string& name, double value,
                    const std::string& unit, std::size_t samples,
                    bool applies) {
  metrics[name] = Metric{value, unit, samples, applies};
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        return line.substr(line.find_first_not_of(' ', colon + 1));
      }
    }
  }
  return "unknown";
}

}  // namespace

std::string backend_name(FieldBackend b) {
  switch (b) {
    case FieldBackend::kMontgomery:
      return "montgomery";
    case FieldBackend::kPrimeDivision:
      return "prime-division";
    case FieldBackend::kMontgomeryAvx2:
      return "montgomery-avx2";
    case FieldBackend::kMontgomeryAvx512:
      return "montgomery-avx512";
  }
  return "unknown";
}

std::string render_json(const RunResult& r) {
  auto flag = [](bool b) { return b ? "true" : "false"; };
  std::ostringstream o;
  o.precision(17);
  o << "{\n";
  o << "  \"workload\": \"" << json_escape(r.workload) << "\",\n";
  o << "  \"seed\": " << r.seed << ",\n";
  o << "  \"trace\": " << flag(r.traced) << ",\n";
  o << "  \"run_seconds\": " << r.run_seconds << ",\n";
  o << "  \"setup_repetitions\": " << r.setup_repetitions << ",\n";
  o << "  \"host\": {\"nproc\": " << ::sysconf(_SC_NPROCESSORS_ONLN);
  o << ", \"cpu_model\": \"" << json_escape(cpu_model()) << "\"";
  o << ", \"avx2\": " << flag(cpu_supports_avx2());
  o << ", \"avx512f\": " << flag(cpu_supports_avx512());
  o << ", \"avx512ifma\": " << flag(cpu_supports_avx512ifma());
  o << ", \"backend\": \"" << json_escape(r.backend) << "\"";
  o << ", \"compiler\": \"" << CAMELOT_E2E_COMPILER << "\"";
  o << ", \"build_type\": \"" << CAMELOT_E2E_BUILD_TYPE << "\"},\n";
  o << "  \"correct\": " << flag(r.failed == 0) << ",\n";
  o << "  \"valid\": " << flag(r.valid) << ",\n";
  o << "  \"invalid_reason\": \"" << json_escape(r.invalid_reason) << "\",\n";
  o << "  \"attempted\": " << r.attempted << ",\n";
  o << "  \"failed\": " << r.failed << ",\n";
  o << "  \"metrics\": {";
  const char* sep = "\n";
  for (const auto& [name, m] : r.metrics) {
    o << sep << "    \"" << json_escape(name) << "\": {";
    o << "\"value\": " << m.value;
    o << ", \"unit\": \"" << json_escape(m.unit) << "\"";
    o << ", \"samples\": " << m.samples;
    o << ", \"applies\": " << flag(m.applies) << "}";
    sep = ",\n";
  }
  o << "\n  },\n";
  o << "  \"latency_samples\": [";
  sep = "";
  for (double v : r.latency_samples) {
    o << sep << v;
    sep = ", ";
  }
  o << "]\n}\n";
  return o.str();
}

double peak_rss_mb(bool children) {
  rusage self{};
  ::getrusage(RUSAGE_SELF, &self);
  long kib = self.ru_maxrss;
  if (children) {
    rusage kids{};
    ::getrusage(RUSAGE_CHILDREN, &kids);
    kib = std::max(kib, kids.ru_maxrss);
  }
  return static_cast<double>(kib) / 1024.0;
}

}  // namespace camelot::e2e
