#include "obs/trace.hpp"

#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace camelot {
namespace obs {

namespace detail {
std::atomic<std::uint32_t> g_trace_mask{kTraceUninit};

std::uint32_t init_trace_mask() noexcept {
  const std::uint32_t mask = parse_trace_categories(
      std::getenv("CAMELOT_TRACE"));
  // Another thread (or set_trace_mask) may have won; keep whatever is
  // there if it is no longer the sentinel.
  std::uint32_t expected = kTraceUninit;
  g_trace_mask.compare_exchange_strong(expected, mask,
                                       std::memory_order_relaxed);
  return g_trace_mask.load(std::memory_order_relaxed);
}
}  // namespace detail

std::uint32_t parse_trace_categories(const char* spec) noexcept {
  if (spec == nullptr || *spec == '\0') return 0;
  std::uint32_t mask = 0;
  const char* p = spec;
  while (*p != '\0') {
    const char* end = std::strchr(p, ',');
    const std::size_t len =
        end != nullptr ? static_cast<std::size_t>(end - p) : std::strlen(p);
    auto is = [&](const char* name) {
      return std::strlen(name) == len && std::strncmp(p, name, len) == 0;
    };
    if (is("field")) mask |= kTraceField;
    else if (is("rs")) mask |= kTraceRs;
    else if (is("stream")) mask |= kTraceStream;
    else if (is("sched")) mask |= kTraceSched;
    else if (is("all") || is("1")) mask |= kTraceAll;
    // unknown tokens: ignored, so new categories stay forward-compatible
    if (end == nullptr) break;
    p = end + 1;
  }
  return mask;
}

void set_trace_mask(std::uint32_t mask) noexcept {
  detail::g_trace_mask.store(mask & ~detail::kTraceUninit,
                             std::memory_order_relaxed);
}

namespace {

const char* category_name(TraceCategory category) noexcept {
  switch (category) {
    case kTraceField: return "field";
    case kTraceRs: return "rs";
    case kTraceStream: return "stream";
    case kTraceSched: return "sched";
    default: return "trace";
  }
}

}  // namespace

void trace_emit(TraceCategory category, const char* fmt, ...) noexcept {
  char buf[512];
  const int prefix = std::snprintf(buf, sizeof(buf), "[camelot:%s] ",
                                   category_name(category));
  if (prefix < 0) return;
  std::size_t off = static_cast<std::size_t>(prefix);
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf + off, sizeof(buf) - off - 1, fmt, args);
  va_end(args);
  // One fwrite per message keeps lines whole under concurrency (stderr
  // is unbuffered; POSIX write of a short buffer is atomic enough).
  const std::size_t len = std::strlen(buf);
  buf[len] = '\n';
  std::fwrite(buf, 1, len + 1, stderr);
}

StageSpan::~StageSpan() {
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0_)
          .count();
  if (hist_ != nullptr) hist_->observe(seconds);
  CAMELOT_TRACE_MSG(category_, "stage=%s prime=%llu seconds=%.6f", stage_,
                    static_cast<unsigned long long>(prime_), seconds);
}

}  // namespace obs
}  // namespace camelot
