// Exporters over obs::Registry snapshots.
//
// Two renderings of one scrape:
//
//   * render_prometheus — the text exposition format (counter / gauge
//     / histogram with cumulative le-labelled buckets), ready to be
//     served from a /metrics endpoint or dumped as a CI artifact;
//   * render_json — a machine-readable snapshot (raw bins, not
//     cumulative) for tooling that wants to merge or diff scrapes —
//     the planned sharded multi-process service consumes this stream.
//
// Both render from a single Registry::snapshot(), so every metric in
// one rendering comes from the same scrape.
#pragma once

#include <string>

#include "obs/metrics.hpp"

namespace camelot {
namespace obs {

std::string render_prometheus(const Registry& registry);
std::string render_json(const Registry& registry);

// Same renderings from an already-taken scrape (callers that need the
// snapshot for other purposes too scrape once).
std::string render_prometheus(const Registry::Snapshot& snap);
std::string render_json(const Registry::Snapshot& snap);

// Inverse of render_json: parses a snapshot a peer process rendered
// (the sharded service ships per-process scrapes as JSON frames and
// the coordinator rolls them up). Accepts exactly the shape
// render_json emits — counters/gauges/histograms with raw bins —
// with tolerant whitespace; throws std::runtime_error on anything
// else. Round-trip property: parse_json_snapshot(render_json(s))
// compares equal to s field by field.
Registry::Snapshot parse_json_snapshot(const std::string& json);

// Fleet rollup: folds `src` into `dst` by metric name — counters and
// gauges add; histograms merge bin-wise via Histogram::Snapshot::merge
// (bounds must agree); metrics absent from `dst` are inserted. The
// result of merging N per-shard scrapes is the scrape one process
// running all N workloads would have produced (equal counts; equal
// bins wherever observations are deterministic). A histogram whose
// bucket count differs throws std::invalid_argument and leaves `dst`
// untouched.
void merge_snapshot(Registry::Snapshot& dst, const Registry::Snapshot& src);

}  // namespace obs
}  // namespace camelot
