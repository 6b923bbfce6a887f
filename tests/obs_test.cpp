// Tests for the observability core (obs/): wait-free metric updates
// vs racing scrapes, histogram quantile/window/merge arithmetic, the
// Prometheus and JSON exporters, category-trace mask parsing, and the
// RAII stage spans.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace camelot {
namespace obs {
namespace {

TEST(Counter, MonotoneUnderConcurrentScrape) {
  Registry reg;
  Counter& c = reg.counter("test_events_total");
  constexpr int kWriters = 4;
  constexpr std::uint64_t kPerWriter = 200000;

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::uint64_t now = c.value();
      ASSERT_GE(now, last);  // never observed going backwards
      last = now;
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerWriter; ++i) c.inc();
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(c.value(), kWriters * kPerWriter);  // nothing lost
}

TEST(Gauge, SetAddAndHighWater) {
  Registry reg;
  Gauge& g = reg.gauge("test_depth");
  g.set(5);
  EXPECT_EQ(g.value(), 5);
  g.add(-2);
  EXPECT_EQ(g.value(), 3);
  Gauge& hw = reg.gauge("test_depth_high_water");
  hw.max_of(3);
  hw.max_of(7);
  hw.max_of(4);  // never lowers
  EXPECT_EQ(hw.value(), 7);
}

TEST(Histogram, TotalEqualsCountOnEveryRacingScrape) {
  // The torn-free contract: count() is *defined* as the sum of the
  // bins, so a scrape concurrent with writers is internally consistent
  // (monotone count, bins summing to it) on every read.
  Registry reg;
  Histogram& h = reg.histogram("test_latency_seconds");
  constexpr int kWriters = 4;
  constexpr int kPerWriter = 100000;

  std::atomic<bool> done{false};
  std::thread scraper([&] {
    std::uint64_t last = 0;
    while (!done.load(std::memory_order_acquire)) {
      const Histogram::Snapshot snap = h.snapshot();
      std::uint64_t sum = 0;
      for (std::uint64_t b : snap.bins) sum += b;
      ASSERT_EQ(snap.count(), sum);
      ASSERT_GE(snap.count(), last);
      last = snap.count();
    }
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kPerWriter; ++i) {
        // Spread observations across the whole ladder.
        h.observe(1e-4 * static_cast<double>((w * kPerWriter + i) % 1000));
      }
    });
  }
  for (auto& t : writers) t.join();
  done.store(true, std::memory_order_release);
  scraper.join();
  EXPECT_EQ(h.snapshot().count(),
            static_cast<std::uint64_t>(kWriters) * kPerWriter);
}

TEST(Histogram, QuantileInterpolatesWithinBuckets) {
  Histogram h({0.001, 0.01, 0.1});
  // 90 fast observations, 10 slow: p50 lands in the first bucket,
  // p95 in the second.
  for (int i = 0; i < 90; ++i) h.observe(0.0005);
  for (int i = 0; i < 10; ++i) h.observe(0.005);
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count(), 100u);
  const double p50 = snap.quantile(0.50);
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 0.001);
  const double p95 = snap.quantile(0.95);
  EXPECT_GT(p95, 0.001);
  EXPECT_LE(p95, 0.01);
  // The +inf bucket clamps to the last finite bound.
  h.observe(5.0);
  EXPECT_EQ(h.snapshot().quantile(1.0), 0.1);
  // Empty histogram quantile is 0.
  EXPECT_EQ(Histogram({1.0}).snapshot().quantile(0.5), 0.0);
}

TEST(Histogram, MeanTracksSum) {
  Histogram h({1.0});
  h.observe(0.25);
  h.observe(0.75);
  EXPECT_NEAR(h.snapshot().mean(), 0.5, 1e-9);
  EXPECT_EQ(Histogram({1.0}).snapshot().mean(), 0.0);
}

TEST(Histogram, DeltaSinceWindowsABatch) {
  Histogram h({0.001, 0.01});
  h.observe(0.0005);  // pre-window noise
  const Histogram::Snapshot before = h.snapshot();
  for (int i = 0; i < 5; ++i) h.observe(0.005);
  const Histogram::Snapshot batch = h.snapshot().delta_since(before);
  EXPECT_EQ(batch.count(), 5u);
  EXPECT_EQ(batch.bins[0], 0u);  // the pre-window observation subtracted out
  EXPECT_EQ(batch.bins[1], 5u);
  EXPECT_NEAR(batch.sum_seconds, 0.025, 1e-9);
  EXPECT_THROW(batch.delta_since(Histogram({1.0}).snapshot()),
               std::invalid_argument);
}

TEST(Histogram, DeltaSinceEmptyBaselineIsFullWindow) {
  // A default-constructed Snapshot is the "before anything happened"
  // baseline (bench windowing starts from one); it must yield the
  // whole later snapshot, not a bucket-mismatch throw. Only a
  // populated baseline with different buckets is a caller error.
  Histogram h({0.001, 0.01});
  h.observe(0.005);
  h.observe(0.005);
  const Histogram::Snapshot window =
      h.snapshot().delta_since(Histogram::Snapshot{});
  EXPECT_EQ(window.count(), 2u);
  EXPECT_EQ(window.bins[1], 2u);
  EXPECT_NEAR(window.sum_seconds, 0.01, 1e-9);
}

TEST(Histogram, MergeAddsAcrossWorkers) {
  Histogram a({0.001, 0.01}), b({0.001, 0.01});
  a.observe(0.0005);
  b.observe(0.005);
  b.observe(0.005);
  Histogram::Snapshot merged = a.snapshot();
  merged.merge(b.snapshot());
  EXPECT_EQ(merged.count(), 3u);
  EXPECT_EQ(merged.bins[0], 1u);
  EXPECT_EQ(merged.bins[1], 2u);
}

TEST(Histogram, RejectsBadBounds) {
  EXPECT_THROW(Histogram({}), std::invalid_argument);
  EXPECT_THROW(Histogram({2.0, 1.0}), std::invalid_argument);
}

TEST(Registry, ReturnsStableReferences) {
  Registry reg;
  Counter& a = reg.counter("x_total");
  Counter& b = reg.counter("x_total");
  EXPECT_EQ(&a, &b);
  Histogram& h1 = reg.histogram("h_seconds", {1.0, 2.0});
  // A second resolve with different bounds gets the existing one.
  Histogram& h2 = reg.histogram("h_seconds", {9.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.bounds().size(), 2u);
  // Unspecified bounds default to the latency ladder.
  EXPECT_EQ(reg.histogram("d_seconds").bounds(),
            Histogram::default_latency_bounds());
}

TEST(Registry, SnapshotIsSortedAndComplete) {
  Registry reg;
  reg.counter("b_total").inc(2);
  reg.counter("a_total").inc(1);
  reg.gauge("g").set(-4);
  reg.histogram("h_seconds", {1.0}).observe(0.5);
  const Registry::Snapshot snap = reg.snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "a_total");
  EXPECT_EQ(snap.counters[1].first, "b_total");
  EXPECT_EQ(snap.counters[1].second, 2u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -4);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].second.count(), 1u);
}

TEST(Export, PrometheusTextFormat) {
  Registry reg;
  reg.counter("jobs_total").inc(42);
  reg.gauge("depth").set(3);
  Histogram& h = reg.histogram("lat_seconds", {0.001, 0.01});
  h.observe(0.0005);
  h.observe(0.005);
  h.observe(2.0);  // +inf bucket
  const std::string text = render_prometheus(reg);
  EXPECT_NE(text.find("# TYPE jobs_total counter\njobs_total 42\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE depth gauge\ndepth 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram\n"), std::string::npos);
  // Cumulative le-buckets ending in +Inf == count.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.001\"} 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.01\"} 2\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 3\n"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_sum "), std::string::npos);
}

TEST(Export, JsonSnapshot) {
  Registry reg;
  reg.counter("jobs_total").inc(7);
  reg.histogram("lat_seconds", {0.5}).observe(0.25);
  const std::string json = render_json(reg);
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"jobs_total\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"lat_seconds\": {\"bounds\": [0.5], "
                      "\"bins\": [1, 0]"),
            std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
  // Raw bins (not cumulative): merge tooling needs the per-bucket
  // counts.
  EXPECT_EQ(json.find("\"le\""), std::string::npos);
}

TEST(Trace, ParsesCategoryLists) {
  EXPECT_EQ(parse_trace_categories(nullptr), 0u);
  EXPECT_EQ(parse_trace_categories(""), 0u);
  EXPECT_EQ(parse_trace_categories("sched"), kTraceSched);
  EXPECT_EQ(parse_trace_categories("sched,stream"),
            kTraceSched | kTraceStream);
  EXPECT_EQ(parse_trace_categories("field,poly,rs,stream,sched"),
            kTraceField | kTraceRs | kTraceStream | kTraceSched);
  // "poly" lost its emitters and then its category: an unknown token.
  EXPECT_EQ(parse_trace_categories("poly"), 0u);
  EXPECT_EQ(parse_trace_categories("all"), static_cast<std::uint32_t>(
                                               kTraceAll));
  EXPECT_EQ(parse_trace_categories("1"), static_cast<std::uint32_t>(
                                             kTraceAll));
  // Unknown tokens are ignored, known ones still land.
  EXPECT_EQ(parse_trace_categories("bogus,rs"), kTraceRs);
}

TEST(Trace, MaskControlsEnabledCategories) {
  set_trace_mask(kTraceRs | kTraceStream);
  EXPECT_TRUE(trace_enabled(kTraceRs));
  EXPECT_TRUE(trace_enabled(kTraceStream));
  EXPECT_FALSE(trace_enabled(kTraceSched));
  EXPECT_FALSE(trace_enabled(kTraceField));
  set_trace_mask(0);
  EXPECT_FALSE(trace_enabled(kTraceRs));
}

TEST(Export, JsonRoundTripsThroughParser) {
  Registry reg;
  reg.counter("camelot_jobs_total").inc(41);
  reg.counter("camelot_errors_total");
  // Above 2^53 a double cannot hold every integer: the parser must not
  // take a detour through one.
  reg.counter("camelot_big_total").inc((std::uint64_t{1} << 53) + 1);
  reg.gauge("camelot_queue_depth").set(-3);
  Histogram& h = reg.histogram("camelot_job_latency_seconds");
  h.observe(0.0002);
  h.observe(0.4);
  h.observe(1e9);  // lands in the +inf bin

  const Registry::Snapshot snap = reg.snapshot();
  const Registry::Snapshot parsed = parse_json_snapshot(render_json(snap));

  ASSERT_EQ(parsed.counters, snap.counters);
  ASSERT_EQ(parsed.gauges, snap.gauges);
  ASSERT_EQ(parsed.histograms.size(), snap.histograms.size());
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    EXPECT_EQ(parsed.histograms[i].first, snap.histograms[i].first);
    EXPECT_EQ(parsed.histograms[i].second.bounds,
              snap.histograms[i].second.bounds);
    EXPECT_EQ(parsed.histograms[i].second.bins,
              snap.histograms[i].second.bins);
    EXPECT_EQ(parsed.histograms[i].second.count(),
              snap.histograms[i].second.count());
  }

  // An empty registry round-trips too (the emitter's empty-object
  // shape is slightly different).
  Registry empty;
  const Registry::Snapshot eparsed =
      parse_json_snapshot(render_json(empty.snapshot()));
  EXPECT_TRUE(eparsed.counters.empty());
  EXPECT_TRUE(eparsed.gauges.empty());
  EXPECT_TRUE(eparsed.histograms.empty());
}

TEST(Export, ParserRejectsMalformedSnapshots) {
  EXPECT_THROW(parse_json_snapshot(""), std::runtime_error);
  EXPECT_THROW(parse_json_snapshot("{}"), std::runtime_error);
  EXPECT_THROW(parse_json_snapshot("{\"counters\": {\"a\": 1}"),
               std::runtime_error);
  Registry reg;
  reg.counter("x_total").inc();
  const std::string good = render_json(reg.snapshot());
  EXPECT_THROW(parse_json_snapshot(good + "trailing"), std::runtime_error);
  // A histogram whose declared count disagrees with its bins is a
  // corrupted frame, not a mergeable scrape.
  EXPECT_THROW(
      parse_json_snapshot(
          "{\n  \"counters\": {},\n  \"gauges\": {},\n  \"histograms\": {\n"
          "    \"h\": {\"bounds\": [1], \"bins\": [2, 0], \"sum\": 0.5, "
          "\"count\": 7}\n  }\n}\n"),
      std::runtime_error);

  // Counters, gauges, bins and counts are integers on the wire. A
  // token the field's type cannot hold exactly fails the frame rather
  // than reaching an undefined double-to-integer cast.
  const auto frame = [](const std::string& counter, const std::string& gauge,
                        const std::string& bin, const std::string& count) {
    return "{\"counters\": {\"c\": " + counter + "}, \"gauges\": {\"g\": " +
           gauge + "}, \"histograms\": {\"h\": {\"bounds\": [1], \"bins\": [" +
           bin + ", 0], \"sum\": 0.5, \"count\": " + count + "}}}";
  };
  const Registry::Snapshot ok = parse_json_snapshot(frame("1", "-1", "2", "2"));
  ASSERT_EQ(ok.gauges.size(), 1u);
  EXPECT_EQ(ok.gauges[0].second, -1);  // gauges may be negative
  for (const std::string bad :
       {"-1", "1e300", "nan", "1.5", "18446744073709551616"}) {
    EXPECT_THROW(parse_json_snapshot(frame(bad, "0", "2", "2")),
                 std::runtime_error)
        << "counter " << bad;
    EXPECT_THROW(parse_json_snapshot(frame("1", "0", bad, "2")),
                 std::runtime_error)
        << "bin " << bad;
    EXPECT_THROW(parse_json_snapshot(frame("1", "0", "2", bad)),
                 std::runtime_error)
        << "count " << bad;
  }
  for (const std::string bad :
       {"1e300", "nan", "1.5", "9223372036854775808"}) {
    EXPECT_THROW(parse_json_snapshot(frame("1", bad, "2", "2")),
                 std::runtime_error)
        << "gauge " << bad;
  }
}

TEST(Export, MergeSnapshotSumsAndInserts) {
  Registry a;
  a.counter("shared_total").inc(5);
  a.gauge("depth").set(2);
  Histogram& ha = a.histogram("lat_seconds");
  ha.observe(0.001);
  ha.observe(2.0);

  Registry b;
  b.counter("shared_total").inc(7);
  b.counter("only_b_total").inc(3);
  b.gauge("depth").set(4);
  Histogram& hb = b.histogram("lat_seconds");
  hb.observe(0.001);

  Registry::Snapshot dst = a.snapshot();
  merge_snapshot(dst, b.snapshot());

  for (const auto& [name, value] : dst.counters) {
    if (name == "shared_total") EXPECT_EQ(value, 12u);
    if (name == "only_b_total") EXPECT_EQ(value, 3u);
  }
  for (const auto& [name, value] : dst.gauges) {
    if (name == "depth") EXPECT_EQ(value, 6);
  }
  ASSERT_EQ(dst.histograms.size(), 1u);
  EXPECT_EQ(dst.histograms[0].second.count(), 3u);
  // Bins add element-wise: both 0.001 observations share a bucket.
  const Histogram::Snapshot sa = ha.snapshot();
  const Histogram::Snapshot sb = hb.snapshot();
  for (std::size_t i = 0; i < sa.bins.size(); ++i) {
    EXPECT_EQ(dst.histograms[0].second.bins[i], sa.bins[i] + sb.bins[i]);
  }
}

TEST(Export, MergeSnapshotIsAllOrNothing) {
  // The counter precedes the mismatched histogram in merge order, yet
  // a rejected merge must not leave it folded in.
  Registry a;
  a.counter("shared_total").inc(5);
  a.histogram("lat_seconds").observe(0.001);
  Registry b;
  b.counter("shared_total").inc(7);
  b.histogram("lat_seconds", {1.0, 2.0}).observe(0.5);

  Registry::Snapshot dst = a.snapshot();
  EXPECT_THROW(merge_snapshot(dst, b.snapshot()), std::invalid_argument);
  EXPECT_EQ(dst.counters, a.snapshot().counters);
  ASSERT_EQ(dst.histograms.size(), 1u);
  EXPECT_EQ(dst.histograms[0].second.bins,
            a.snapshot().histograms[0].second.bins);
}

TEST(Trace, StageSpanObservesHistogram) {
  Registry reg;
  Histogram& h = reg.histogram("span_seconds");
  {
    StageSpan span(&h, kTraceSched, "prepare", 97);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count(), 1u);
  EXPECT_GT(snap.sum_seconds, 0.0);
  // A null histogram is fine (trace-only span).
  { StageSpan span(nullptr, kTraceSched, "decode", 97); }
}

}  // namespace
}  // namespace obs
}  // namespace camelot
