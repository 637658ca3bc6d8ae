#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>

#include "common/assert.hpp"

namespace rh::telemetry {

double histogram_quantile(double lo, double hi, const std::vector<std::uint64_t>& buckets,
                          double q) {
  std::uint64_t total = 0;
  for (const auto c : buckets) total += c;
  if (total == 0 || buckets.empty()) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double width = (hi - lo) / static_cast<double>(buckets.size());
  const double target = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const auto count = static_cast<double>(buckets[i]);
    if (count > 0.0 && cumulative + count >= target) {
      // Linear interpolation: the target rank sits `frac` of the way through
      // this bucket's samples, assumed uniform across the bucket's range.
      const double frac = std::clamp((target - cumulative) / count, 0.0, 1.0);
      return lo + width * (static_cast<double>(i) + frac);
    }
    cumulative += count;
  }
  return hi;  // q == 1 with trailing empty buckets
}

FixedHistogram::FixedHistogram(double lo, double hi, std::size_t bins) : lo_(lo), hi_(hi) {
  RH_EXPECTS(hi > lo);
  RH_EXPECTS(bins > 0);
  counts_.assign(bins, 0);
}

void FixedHistogram::observe(double x) {
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  auto idx = static_cast<std::int64_t>(std::floor((x - lo_) / width));
  idx = std::clamp<std::int64_t>(idx, 0, static_cast<std::int64_t>(counts_.size()) - 1);
  ++counts_[static_cast<std::size_t>(idx)];
  sum_ += x;
}

void FixedHistogram::merge_from(const FixedHistogram& other) {
  RH_EXPECTS(other.lo_ == lo_ && other.hi_ == hi_ && other.counts_.size() == counts_.size());
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  sum_ += other.sum_;
}

double FixedHistogram::quantile(double q) const {
  return histogram_quantile(lo_, hi_, counts_, q);
}

HistogramSummary FixedHistogram::summary() const {
  HistogramSummary s;
  s.count = total();
  s.sum = sum_;
  s.p50 = quantile(0.50);
  s.p90 = quantile(0.90);
  s.p99 = quantile(0.99);
  return s;
}

std::uint64_t FixedHistogram::total() const {
  return std::accumulate(counts_.begin(), counts_.end(), std::uint64_t{0});
}

double FixedHistogram::bucket_lower(std::size_t i) const {
  RH_EXPECTS(i < counts_.size());
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i);
}

double FixedHistogram::bucket_upper(std::size_t i) const {
  RH_EXPECTS(i < counts_.size());
  const double width = (hi_ - lo_) / static_cast<double>(counts_.size());
  return lo_ + width * static_cast<double>(i + 1);
}

void FixedHistogram::reset() {
  std::fill(counts_.begin(), counts_.end(), 0);
  sum_ = 0.0;
}

const SnapshotEntry* MetricsSnapshot::find(std::string_view name) const {
  for (const auto& e : entries) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

double MetricsSnapshot::value_or(std::string_view name, double def) const {
  const auto* e = find(name);
  return e == nullptr ? def : e->value;
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::ostringstream os;
    os << static_cast<std::int64_t>(v);
    return os.str();
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

namespace {

void write_group(std::ostream& os, const std::vector<SnapshotEntry>& entries, MetricKind kind) {
  bool first = true;
  for (const auto& e : entries) {
    if (e.kind != kind) continue;
    if (!first) os << ',';
    first = false;
    os << '"' << json_escape(e.name) << "\":";
    if (kind == MetricKind::kHistogram) {
      // Keys in sorted order so the document is byte-stable under diffing.
      const double width = (e.hi - e.lo) / static_cast<double>(e.buckets.size());
      os << "{\"bounds\":[";
      for (std::size_t i = 0; i <= e.buckets.size(); ++i) {
        if (i != 0) os << ',';
        os << json_number(e.lo + width * static_cast<double>(i));
      }
      os << "],\"buckets\":[";
      for (std::size_t i = 0; i < e.buckets.size(); ++i) {
        if (i != 0) os << ',';
        os << e.buckets[i];
      }
      os << "],\"count\":" << json_number(e.value) << ",\"hi\":" << json_number(e.hi)
         << ",\"lo\":" << json_number(e.lo)
         << ",\"p50\":" << json_number(histogram_quantile(e.lo, e.hi, e.buckets, 0.50))
         << ",\"p90\":" << json_number(histogram_quantile(e.lo, e.hi, e.buckets, 0.90))
         << ",\"p99\":" << json_number(histogram_quantile(e.lo, e.hi, e.buckets, 0.99))
         << ",\"sum\":" << json_number(e.sum) << '}';
    } else {
      os << json_number(e.value);
    }
  }
}

}  // namespace

void MetricsSnapshot::write_json(std::ostream& os) const {
  os << "{\"counters\":{";
  write_group(os, entries, MetricKind::kCounter);
  os << "},\"gauges\":{";
  write_group(os, entries, MetricKind::kGauge);
  os << "},\"histograms\":{";
  write_group(os, entries, MetricKind::kHistogram);
  os << "}}";
}

void MetricsSnapshot::write_csv(common::CsvWriter& csv) const {
  csv.write_row({"metric", "kind", "lo", "hi", "value"});
  for (const auto& e : entries) {
    if (e.kind == MetricKind::kHistogram) {
      for (std::size_t i = 0; i < e.buckets.size(); ++i) {
        const double width = (e.hi - e.lo) / static_cast<double>(e.buckets.size());
        csv.write_row({e.name + "[" + std::to_string(i) + "]", "histogram_bucket",
                       std::to_string(e.lo + width * static_cast<double>(i)),
                       std::to_string(e.lo + width * static_cast<double>(i + 1)),
                       std::to_string(e.buckets[i])});
      }
    } else {
      csv.write_row({e.name, std::string(to_string(e.kind)), "", "", json_number(e.value)});
    }
  }
}

Counter& MetricsRegistry::counter(const std::string& name) { return counters_[name]; }

Gauge& MetricsRegistry::gauge(const std::string& name) { return gauges_[name]; }

FixedHistogram& MetricsRegistry::histogram(const std::string& name, double lo, double hi,
                                           std::size_t bins) {
  const auto it = histograms_.find(name);
  if (it != histograms_.end()) return it->second;
  return histograms_.emplace(name, FixedHistogram(lo, hi, bins)).first->second;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot snap;
  snap.entries.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    snap.entries.push_back(
        {name, MetricKind::kCounter, static_cast<double>(c.value()), 0.0, 0.0, 0.0, {}});
  }
  for (const auto& [name, g] : gauges_) {
    snap.entries.push_back({name, MetricKind::kGauge, g.value(), 0.0, 0.0, 0.0, {}});
  }
  for (const auto& [name, h] : histograms_) {
    snap.entries.push_back({name, MetricKind::kHistogram, static_cast<double>(h.total()), h.lo(),
                            h.hi(), h.sum(), h.buckets()});
  }
  std::sort(snap.entries.begin(), snap.entries.end(),
            [](const SnapshotEntry& a, const SnapshotEntry& b) { return a.name < b.name; });
  return snap;
}

void MetricsRegistry::merge_from(const MetricsRegistry& other) {
  for (const auto& [name, c] : other.counters_) counters_[name].add(c.value());
  for (const auto& [name, g] : other.gauges_) gauges_[name].set(g.value());
  for (const auto& [name, h] : other.histograms_) {
    histogram(name, h.lo(), h.hi(), h.buckets().size()).merge_from(h);
  }
}

void MetricsRegistry::reset() {
  for (auto& [name, c] : counters_) c.reset();
  for (auto& [name, g] : gauges_) g.reset();
  for (auto& [name, h] : histograms_) h.reset();
}

}  // namespace rh::telemetry
