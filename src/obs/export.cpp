#include "obs/export.hpp"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace camelot {
namespace obs {

namespace {

void append_f(std::string& out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void append_f(std::string& out, const char* fmt, ...) {
  char buf[256];
  va_list args;
  va_start(args, fmt);
  const int n = std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  if (n > 0) out.append(buf, std::min(sizeof(buf) - 1, std::size_t(n)));
}

// %.9g: full double round-trip is overkill for latency metrics, but
// the bucket bounds (1e-4 etc.) must not collapse to 0.
void append_double(std::string& out, double v) {
  append_f(out, "%.9g", v);
}

}  // namespace

std::string render_prometheus(const Registry::Snapshot& snap) {
  std::string out;
  for (const auto& [name, value] : snap.counters) {
    append_f(out, "# TYPE %s counter\n", name.c_str());
    append_f(out, "%s %" PRIu64 "\n", name.c_str(), value);
  }
  for (const auto& [name, value] : snap.gauges) {
    append_f(out, "# TYPE %s gauge\n", name.c_str());
    append_f(out, "%s %" PRId64 "\n", name.c_str(), value);
  }
  for (const auto& [name, h] : snap.histograms) {
    append_f(out, "# TYPE %s histogram\n", name.c_str());
    std::uint64_t cum = 0;
    for (std::size_t i = 0; i < h.bins.size(); ++i) {
      cum += h.bins[i];
      if (i < h.bounds.size()) {
        append_f(out, "%s_bucket{le=\"", name.c_str());
        append_double(out, h.bounds[i]);
        append_f(out, "\"} %" PRIu64 "\n", cum);
      } else {
        append_f(out, "%s_bucket{le=\"+Inf\"} %" PRIu64 "\n", name.c_str(),
                 cum);
      }
    }
    append_f(out, "%s_sum ", name.c_str());
    append_double(out, h.sum_seconds);
    out += '\n';
    append_f(out, "%s_count %" PRIu64 "\n", name.c_str(), cum);
  }
  return out;
}

std::string render_json(const Registry::Snapshot& snap) {
  std::string out = "{\n  \"counters\": {";
  for (std::size_t i = 0; i < snap.counters.size(); ++i) {
    append_f(out, "%s\n    \"%s\": %" PRIu64, i ? "," : "",
             snap.counters[i].first.c_str(), snap.counters[i].second);
  }
  out += snap.counters.empty() ? "},\n" : "\n  },\n";
  out += "  \"gauges\": {";
  for (std::size_t i = 0; i < snap.gauges.size(); ++i) {
    append_f(out, "%s\n    \"%s\": %" PRId64, i ? "," : "",
             snap.gauges[i].first.c_str(), snap.gauges[i].second);
  }
  out += snap.gauges.empty() ? "},\n" : "\n  },\n";
  out += "  \"histograms\": {";
  for (std::size_t i = 0; i < snap.histograms.size(); ++i) {
    const auto& [name, h] = snap.histograms[i];
    append_f(out, "%s\n    \"%s\": {\"bounds\": [", i ? "," : "",
             name.c_str());
    for (std::size_t b = 0; b < h.bounds.size(); ++b) {
      if (b) out += ", ";
      append_double(out, h.bounds[b]);
    }
    out += "], \"bins\": [";
    for (std::size_t b = 0; b < h.bins.size(); ++b) {
      if (b) out += ", ";
      append_f(out, "%" PRIu64, h.bins[b]);
    }
    out += "], \"sum\": ";
    append_double(out, h.sum_seconds);
    append_f(out, ", \"count\": %" PRIu64 "}", h.count());
  }
  out += snap.histograms.empty() ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

namespace {

// Recursive-descent reader over the fixed shape render_json emits.
// Not a general JSON parser: object keys are metric names (no escape
// processing beyond refusing embedded quotes, which Registry never
// produces), values are numbers / the histogram object. Anything off
// the rails throws, so a truncated or foreign frame fails loudly at
// the coordinator instead of merging garbage into the fleet scrape.
class JsonCursor {
 public:
  explicit JsonCursor(const std::string& text) : s_(text) {}

  void expect(char c) {
    skip_ws();
    if (pos_ >= s_.size() || s_[pos_] != c) {
      throw std::runtime_error(std::string("obs snapshot parse: expected '") +
                               c + "' at offset " + std::to_string(pos_));
    }
    ++pos_;
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  std::string string_value() {
    expect('"');
    const std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        throw std::runtime_error(
            "obs snapshot parse: escape sequences unsupported");
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) {
      throw std::runtime_error("obs snapshot parse: unterminated string");
    }
    std::string out = s_.substr(start, pos_ - start);
    ++pos_;
    return out;
  }

  double number_value() {
    skip_ws();
    const char* begin = s_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(begin, &end);
    if (end == begin) {
      throw std::runtime_error("obs snapshot parse: expected number at offset " +
                               std::to_string(pos_));
    }
    pos_ += std::size_t(end - begin);
    return v;
  }

  // An exact decimal integer, as render_json prints counters, gauges,
  // bins and counts. A double detour would round above 2^53, and a
  // token the type cannot hold (negative for unsigned, fractional,
  // non-finite, out of range) fails the frame instead of reaching an
  // undefined double-to-integer cast.
  template <typename Int>
  Int integer_value() {
    skip_ws();
    const char* begin = s_.data() + pos_;
    const char* end = s_.data() + s_.size();
    Int v{};
    const auto [ptr, ec] = std::from_chars(begin, end, v);
    if (ec != std::errc{} ||
        (ptr != end && (*ptr == '.' || *ptr == 'e' || *ptr == 'E'))) {
      throw std::runtime_error(
          "obs snapshot parse: expected integer at offset " +
          std::to_string(pos_));
    }
    pos_ += std::size_t(ptr - begin);
    return v;
  }

  void finish() {
    skip_ws();
    if (pos_ != s_.size()) {
      throw std::runtime_error("obs snapshot parse: trailing data at offset " +
                               std::to_string(pos_));
    }
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\t' ||
            s_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// Parses `"name": <value>` pairs until the closing brace, handing each
// name to `on_entry` with the cursor positioned at the value.
template <typename Fn>
void parse_object(JsonCursor& cur, Fn&& on_entry) {
  cur.expect('{');
  if (cur.consume('}')) return;
  do {
    std::string name = cur.string_value();
    cur.expect(':');
    on_entry(std::move(name));
  } while (cur.consume(','));
  cur.expect('}');
}

}  // namespace

Registry::Snapshot parse_json_snapshot(const std::string& json) {
  Registry::Snapshot snap;
  JsonCursor cur(json);
  cur.expect('{');

  if (cur.string_value() != "counters") {
    throw std::runtime_error("obs snapshot parse: expected \"counters\"");
  }
  cur.expect(':');
  parse_object(cur, [&](std::string name) {
    snap.counters.emplace_back(std::move(name),
                               cur.integer_value<std::uint64_t>());
  });
  cur.expect(',');

  if (cur.string_value() != "gauges") {
    throw std::runtime_error("obs snapshot parse: expected \"gauges\"");
  }
  cur.expect(':');
  parse_object(cur, [&](std::string name) {
    snap.gauges.emplace_back(std::move(name),
                             cur.integer_value<std::int64_t>());
  });
  cur.expect(',');

  if (cur.string_value() != "histograms") {
    throw std::runtime_error("obs snapshot parse: expected \"histograms\"");
  }
  cur.expect(':');
  parse_object(cur, [&](std::string name) {
    Histogram::Snapshot h;
    cur.expect('{');
    if (cur.string_value() != "bounds") {
      throw std::runtime_error("obs snapshot parse: expected \"bounds\"");
    }
    cur.expect(':');
    cur.expect('[');
    if (!cur.consume(']')) {
      do {
        h.bounds.push_back(cur.number_value());
      } while (cur.consume(','));
      cur.expect(']');
    }
    cur.expect(',');
    if (cur.string_value() != "bins") {
      throw std::runtime_error("obs snapshot parse: expected \"bins\"");
    }
    cur.expect(':');
    cur.expect('[');
    if (!cur.consume(']')) {
      do {
        h.bins.push_back(cur.integer_value<std::uint64_t>());
      } while (cur.consume(','));
      cur.expect(']');
    }
    cur.expect(',');
    if (cur.string_value() != "sum") {
      throw std::runtime_error("obs snapshot parse: expected \"sum\"");
    }
    cur.expect(':');
    h.sum_seconds = cur.number_value();
    cur.expect(',');
    if (cur.string_value() != "count") {
      throw std::runtime_error("obs snapshot parse: expected \"count\"");
    }
    cur.expect(':');
    const auto declared = cur.integer_value<std::uint64_t>();
    cur.expect('}');
    if (h.bins.size() != h.bounds.size() + 1) {
      throw std::runtime_error("obs snapshot parse: histogram \"" + name +
                               "\" has " + std::to_string(h.bins.size()) +
                               " bins for " + std::to_string(h.bounds.size()) +
                               " bounds");
    }
    if (declared != h.count()) {
      throw std::runtime_error("obs snapshot parse: histogram \"" + name +
                               "\" count disagrees with its bins");
    }
    snap.histograms.emplace_back(std::move(name), std::move(h));
  });

  cur.expect('}');
  cur.finish();
  return snap;
}

void merge_snapshot(Registry::Snapshot& dst, const Registry::Snapshot& src) {
  // Scrapes are small (dozens of metrics): folding into a copy costs
  // little and commits all or nothing, and linear find keeps the
  // containers in render order without imposing a map on callers.
  Registry::Snapshot out = dst;
  for (const auto& [name, value] : src.counters) {
    auto it = std::find_if(out.counters.begin(), out.counters.end(),
                           [&](const auto& e) { return e.first == name; });
    if (it == out.counters.end()) {
      out.counters.emplace_back(name, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [name, value] : src.gauges) {
    auto it = std::find_if(out.gauges.begin(), out.gauges.end(),
                           [&](const auto& e) { return e.first == name; });
    if (it == out.gauges.end()) {
      out.gauges.emplace_back(name, value);
    } else {
      it->second += value;
    }
  }
  for (const auto& [name, h] : src.histograms) {
    auto it = std::find_if(out.histograms.begin(), out.histograms.end(),
                           [&](const auto& e) { return e.first == name; });
    if (it == out.histograms.end()) {
      out.histograms.emplace_back(name, h);
    } else {
      it->second.merge(h);
    }
  }
  dst = std::move(out);
}

std::string render_prometheus(const Registry& registry) {
  return render_prometheus(registry.snapshot());
}

std::string render_json(const Registry& registry) {
  return render_json(registry.snapshot());
}

}  // namespace obs
}  // namespace camelot
