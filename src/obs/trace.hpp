// Env-controlled category tracing + RAII stage spans, in the style of
// pocl's pocl_debug.h bitmask tracing (one bit per subsystem, message
// macro that evaluates nothing when the bit is off).
//
//   CAMELOT_TRACE=sched,stream ./example_quickstart
//
// Categories: field (Montgomery/NTT context builds), rs (Gao decode
// outcomes), stream (symbol transport lifecycle), sched (session stage
// markers + shard coordinator lifecycle). `all` enables everything.
//
// Cost model: with tracing disabled (the default) a trace site is one
// relaxed atomic load, a mask test and a predictable branch — no
// argument evaluation, no formatting (the macro guards the emit call)
// — so the hot pipeline can carry trace sites unconditionally.
// Defining CAMELOT_NO_TRACE at compile time removes the sites
// entirely. Emission writes one line to stderr per message:
//
//   [camelot:sched] stage=decode prime=2147483137 seconds=0.000042
//
// StageSpan is the bridge to obs/metrics.hpp: constructed around a
// pipeline stage, it records the elapsed seconds into a per-stage
// histogram on destruction and emits the stage marker above when its
// category is enabled.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/metrics.hpp"

namespace camelot {
namespace obs {

enum TraceCategory : std::uint32_t {
  kTraceField = 1u << 0,
  kTraceRs = 1u << 2,
  kTraceStream = 1u << 3,
  kTraceSched = 1u << 4,
  kTraceAll = 0xFFFFFFFFu >> 1,  // kTraceUninit stays clear
};

namespace detail {
// Sentinel "not parsed yet": first trace_enabled() call resolves the
// mask from CAMELOT_TRACE exactly once (first-use, not static-init
// order dependent).
inline constexpr std::uint32_t kTraceUninit = 0x80000000u;
extern std::atomic<std::uint32_t> g_trace_mask;
std::uint32_t init_trace_mask() noexcept;
}  // namespace detail

// Parses a comma-separated category list ("sched,stream", "all", "");
// unknown tokens are ignored. Exposed for tests and for
// set_trace_mask callers.
std::uint32_t parse_trace_categories(const char* spec) noexcept;

// Overrides the mask (tests, or embedders that configure tracing
// programmatically instead of via the environment).
void set_trace_mask(std::uint32_t mask) noexcept;

inline bool trace_enabled(TraceCategory category) noexcept {
  std::uint32_t mask = detail::g_trace_mask.load(std::memory_order_relaxed);
  if (mask == detail::kTraceUninit) mask = detail::init_trace_mask();
  return (mask & category) != 0;
}

// printf-style emit; call through CAMELOT_TRACE_MSG so disabled
// categories never evaluate the arguments.
void trace_emit(TraceCategory category, const char* fmt, ...) noexcept
    __attribute__((format(printf, 2, 3)));

#ifdef CAMELOT_NO_TRACE
#define CAMELOT_TRACE_MSG(category, ...) \
  do {                                   \
  } while (0)
#else
#define CAMELOT_TRACE_MSG(category, ...)                    \
  do {                                                      \
    if (::camelot::obs::trace_enabled(category)) {          \
      ::camelot::obs::trace_emit(category, __VA_ARGS__);    \
    }                                                       \
  } while (0)
#endif

// RAII span around one pipeline stage of one prime: observes elapsed
// seconds into `hist` (when non-null) and emits a "stage=..." marker
// under `category` when tracing is on. Cheap enough for per-chunk
// granularity: one steady_clock read each end plus the histogram's
// two relaxed RMWs.
class StageSpan {
 public:
  StageSpan(Histogram* hist, TraceCategory category, const char* stage,
            std::uint64_t prime) noexcept
      : hist_(hist),
        category_(category),
        stage_(stage),
        prime_(prime),
        t0_(std::chrono::steady_clock::now()) {}
  ~StageSpan();

  StageSpan(const StageSpan&) = delete;
  StageSpan& operator=(const StageSpan&) = delete;

 private:
  Histogram* hist_;
  TraceCategory category_;
  const char* stage_;
  std::uint64_t prime_;
  std::chrono::steady_clock::time_point t0_;
};

}  // namespace obs
}  // namespace camelot
