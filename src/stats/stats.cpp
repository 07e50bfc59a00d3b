#include "stats/stats.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <limits>

#include "util/check.hpp"
#include "util/log.hpp"

namespace agile::stats {

namespace {

constexpr std::uint64_t kSaturated = std::numeric_limits<std::uint64_t>::max();

/// Saturating add on a relaxed cell. The cell is only ever *increased*
/// toward the ceiling, so concurrent saturating adds from lanes commute:
/// whichever interleaving runs, the post-barrier value is
/// min(ceiling, sum of all adds).
void saturating_add(util::RelaxedCell<std::uint64_t>& cell, std::uint64_t d) {
  std::uint64_t cur = cell.load();
  if (d >= kSaturated - cur) {
    cell.store(kSaturated);
  } else {
    cell.add(d);
  }
}

constexpr std::int64_t kSaturatedMax = std::numeric_limits<std::int64_t>::max();
constexpr std::int64_t kSaturatedMin = std::numeric_limits<std::int64_t>::min();

/// Saturating signed add on a cell holding a two's-complement running total
/// (the histogram sum). Latches at either int64 ceiling; while unsaturated,
/// adds are exact (the wrapping unsigned add of the bit pattern *is* signed
/// addition), so concurrent adds of non-negative observations commute like
/// the unsigned cells.
void saturating_add_signed(util::RelaxedCell<std::uint64_t>& cell,
                           std::int64_t d) {
  std::int64_t cur = static_cast<std::int64_t>(cell.load());
  if (cur == kSaturatedMax || cur == kSaturatedMin) return;
  if (d > 0 && cur > kSaturatedMax - d) {
    cell.store(static_cast<std::uint64_t>(kSaturatedMax));
  } else if (d < 0 && cur < kSaturatedMin - d) {
    cell.store(static_cast<std::uint64_t>(kSaturatedMin));
  } else {
    cell.add(static_cast<std::uint64_t>(d));
  }
}

const char* kind_name(MetricKind k) {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

void append_i64(std::string* out, std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  *out += buf;
}

void append_u64(std::string* out, std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  *out += buf;
}

/// JSON string escaping for names/labels (metric names are ASCII by
/// convention; this keeps arbitrary label values from breaking the export).
void append_json_string(std::string* out, const std::string& s) {
  *out += '"';
  for (char c : s) {
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          *out += c;
        }
    }
  }
  *out += '"';
}

Status write_text(const std::string& path, const std::string& text,
                  const char* what) {
  std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    AGILE_LOG_WARN("stats: cannot open '%s' for writing (%s export dropped)",
                   path.c_str(), what);
    return unavailable(std::string("stats: cannot open '") + path +
                       "' for writing");
  }
  std::fwrite(text.data(), 1, text.size(), f);
  std::fclose(f);
  return Status::ok();
}

}  // namespace

Histogram::Histogram(std::vector<std::int64_t> bounds)
    : bounds_(std::move(bounds)), buckets_(bounds_.size() + 1) {
  AGILE_CHECK_MSG(std::is_sorted(bounds_.begin(), bounds_.end()),
              "histogram bounds must be ascending");
  AGILE_CHECK_MSG(std::adjacent_find(bounds_.begin(), bounds_.end()) ==
                  bounds_.end(),
              "histogram bounds must be distinct");
}

void Histogram::observe_n(std::int64_t v, std::uint64_t n) {
  if (n == 0) return;
  // First bucket whose inclusive upper edge admits v; past-the-end is the
  // overflow bucket.
  std::size_t idx = static_cast<std::size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), v) - bounds_.begin());
  saturating_add(buckets_[idx], n);
  saturating_add(count_, n);
  // The sum is a signed running total saturating at the int64 ceilings.
  // Clamp the n*|v| multiply to the ceiling first so it cannot overflow.
  std::uint64_t mag = static_cast<std::uint64_t>(v < 0 ? -v : v);
  std::uint64_t total = (mag != 0 && n > kSaturated / mag) ? kSaturated : mag * n;
  if (total > static_cast<std::uint64_t>(kSaturatedMax)) {
    total = static_cast<std::uint64_t>(kSaturatedMax);
  }
  saturating_add_signed(sum_, v < 0 ? -static_cast<std::int64_t>(total)
                                    : static_cast<std::int64_t>(total));
}

std::uint64_t Histogram::cumulative(std::size_t i) const {
  AGILE_CHECK_MSG(i <= bounds_.size(), "histogram bucket index out of range");
  std::uint64_t total = 0;
  for (std::size_t b = 0; b <= i; ++b) {
    std::uint64_t v = buckets_[b].load();
    total = (v >= kSaturated - total) ? kSaturated : total + v;
  }
  return total;
}

std::string render_labels(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out += ',';
    out += labels[i].first;
    out += "=\"";
    out += labels[i].second;
    out += '"';
  }
  out += '}';
  return out;
}

std::string Registry::series_key(const std::string& name,
                                 const Labels& labels) {
  return name + render_labels(labels);
}

Registry::Metric* Registry::find_or_null(const std::string& key) {
  auto it = index_.find(key);
  return it == index_.end() ? nullptr : &metrics_[it->second];
}

Counter* Registry::counter(const std::string& name, const Labels& labels,
                           const std::string& help) {
  const std::string key = series_key(name, labels);
  if (Metric* m = find_or_null(key)) {
    AGILE_CHECK_MSG(m->kind == MetricKind::kCounter,
                "stats: series re-registered with a different kind");
    return m->counter.get();
  }
  Metric m;
  m.kind = MetricKind::kCounter;
  m.name = name;
  m.labels = labels;
  m.help = help;
  m.counter = std::make_unique<Counter>();
  Counter* out = m.counter.get();
  index_[key] = metrics_.size();
  metrics_.push_back(std::move(m));
  return out;
}

Gauge* Registry::gauge(const std::string& name, const Labels& labels,
                       const std::string& help) {
  const std::string key = series_key(name, labels);
  if (Metric* m = find_or_null(key)) {
    AGILE_CHECK_MSG(m->kind == MetricKind::kGauge,
                "stats: series re-registered with a different kind");
    return m->gauge.get();
  }
  Metric m;
  m.kind = MetricKind::kGauge;
  m.name = name;
  m.labels = labels;
  m.help = help;
  m.gauge = std::make_unique<Gauge>();
  Gauge* out = m.gauge.get();
  index_[key] = metrics_.size();
  metrics_.push_back(std::move(m));
  return out;
}

Histogram* Registry::histogram(const std::string& name,
                               const std::vector<std::int64_t>& bounds,
                               const Labels& labels, const std::string& help) {
  const std::string key = series_key(name, labels);
  if (Metric* m = find_or_null(key)) {
    AGILE_CHECK_MSG(m->kind == MetricKind::kHistogram,
                "stats: series re-registered with a different kind");
    AGILE_CHECK_MSG(m->histogram->bounds() == bounds,
                "stats: histogram re-registered with different bounds");
    return m->histogram.get();
  }
  Metric m;
  m.kind = MetricKind::kHistogram;
  m.name = name;
  m.labels = labels;
  m.help = help;
  m.histogram = std::make_unique<Histogram>(bounds);
  Histogram* out = m.histogram.get();
  index_[key] = metrics_.size();
  metrics_.push_back(std::move(m));
  return out;
}

void Registry::record_snapshot(StatsTime now) {
  Snapshot snap;
  snap.t = now;
  snap.values.reserve(metrics_.size());
  for (const Metric& m : metrics_) {
    std::vector<std::int64_t> row;
    switch (m.kind) {
      case MetricKind::kCounter:
        row.push_back(static_cast<std::int64_t>(m.counter->value()));
        break;
      case MetricKind::kGauge:
        row.push_back(m.gauge->value());
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *m.histogram;
        for (std::size_t b = 0; b <= h.bounds().size(); ++b) {
          row.push_back(static_cast<std::int64_t>(h.cumulative(b)));
        }
        row.push_back(static_cast<std::int64_t>(h.count()));
        row.push_back(h.sum());
        break;
      }
    }
    snap.values.push_back(std::move(row));
  }
  snapshots_.push_back(std::move(snap));
}

std::string Registry::to_prometheus(StatsTime now) const {
  std::string out;
  out.reserve(metrics_.size() * 96);
  const std::int64_t ts_ms = now / 1000;
  // HELP/TYPE once per family, at its first series (registration order).
  std::map<std::string, bool> emitted_header;
  for (const Metric& m : metrics_) {
    bool& seen = emitted_header[m.name];
    if (!seen) {
      seen = true;
      out += "# HELP " + m.name + " " +
             (m.help.empty() ? std::string("(no help)") : m.help) + "\n";
      out += "# TYPE " + m.name + " " + kind_name(m.kind) + "\n";
    }
    const std::string labels = render_labels(m.labels);
    switch (m.kind) {
      case MetricKind::kCounter:
        out += m.name + labels + " ";
        append_u64(&out, m.counter->value());
        out += " ";
        append_i64(&out, ts_ms);
        out += "\n";
        break;
      case MetricKind::kGauge:
        out += m.name + labels + " ";
        append_i64(&out, m.gauge->value());
        out += " ";
        append_i64(&out, ts_ms);
        out += "\n";
        break;
      case MetricKind::kHistogram: {
        const Histogram& h = *m.histogram;
        for (std::size_t b = 0; b <= h.bounds().size(); ++b) {
          Labels le = m.labels;
          std::string edge;
          if (b < h.bounds().size()) {
            append_i64(&edge, h.bounds()[b]);
          } else {
            edge = "+Inf";
          }
          le.emplace_back("le", edge);
          out += m.name + "_bucket" + render_labels(le) + " ";
          append_u64(&out, h.cumulative(b));
          out += " ";
          append_i64(&out, ts_ms);
          out += "\n";
        }
        out += m.name + "_sum" + labels + " ";
        append_i64(&out, h.sum());
        out += " ";
        append_i64(&out, ts_ms);
        out += "\n";
        out += m.name + "_count" + labels + " ";
        append_u64(&out, h.count());
        out += " ";
        append_i64(&out, ts_ms);
        out += "\n";
        break;
      }
    }
  }
  return out;
}

std::string Registry::snapshots_json() const {
  std::string out = "{\n  \"series\": [\n";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out += "    {\"name\": ";
    append_json_string(&out, m.name);
    out += ", \"kind\": \"";
    out += kind_name(m.kind);
    out += "\", \"labels\": {";
    for (std::size_t l = 0; l < m.labels.size(); ++l) {
      if (l > 0) out += ", ";
      append_json_string(&out, m.labels[l].first);
      out += ": ";
      append_json_string(&out, m.labels[l].second);
    }
    out += "}";
    if (m.kind == MetricKind::kHistogram) {
      out += ", \"bounds\": [";
      const auto& bounds = m.histogram->bounds();
      for (std::size_t b = 0; b < bounds.size(); ++b) {
        if (b > 0) out += ", ";
        append_i64(&out, bounds[b]);
      }
      out += "]";
    }
    out += "}";
    if (i + 1 < metrics_.size()) out += ",";
    out += "\n";
  }
  out += "  ],\n  \"snapshots\": [\n";
  for (std::size_t s = 0; s < snapshots_.size(); ++s) {
    const Snapshot& snap = snapshots_[s];
    out += "    {\"t_usec\": ";
    append_i64(&out, snap.t);
    out += ", \"values\": [";
    for (std::size_t v = 0; v < snap.values.size(); ++v) {
      if (v > 0) out += ", ";
      const std::vector<std::int64_t>& row = snap.values[v];
      if (row.size() == 1) {
        append_i64(&out, row[0]);
      } else {
        out += "[";
        for (std::size_t k = 0; k < row.size(); ++k) {
          if (k > 0) out += ", ";
          append_i64(&out, row[k]);
        }
        out += "]";
      }
    }
    out += "]}";
    if (s + 1 < snapshots_.size()) out += ",";
    out += "\n";
  }
  out += "  ]\n}\n";
  return out;
}

Status Registry::write_prometheus(const std::string& path,
                                  StatsTime now) const {
  return write_text(path, to_prometheus(now), "prometheus");
}

Status Registry::write_snapshots_json(const std::string& path) const {
  return write_text(path, snapshots_json(), "json");
}

}  // namespace agile::stats
