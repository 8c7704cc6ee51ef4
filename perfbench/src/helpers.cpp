#include "helpers.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples.  The epsilon
/// keeps p * n / 100 from rounding up past an exact rank (99.9 of 10000).
std::size_t nearest_rank(double p, std::size_t n) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile(std::vector<double> values, double p) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(p > 0.0 && p <= 100.0)) {
    throw std::invalid_argument("percentile outside (0, 100]");
  }
  std::sort(values.begin(), values.end());
  return values[nearest_rank(p, values.size()) - 1];
}

std::optional<TailPercentile> tail_percentile(std::vector<double> values,
                                              std::size_t min_beyond) {
  static constexpr double kLadder[] = {99.9, 99.0, 95.0, 90.0, 50.0};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  for (const double p : kLadder) {
    if (n == 0) break;
    const std::size_t rank = nearest_rank(p, n);
    if (n - rank >= min_beyond) {
      return TailPercentile{p, values[rank - 1], n, n - rank};
    }
  }
  return std::nullopt;
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

SpanRecorder::SpanRecorder(std::uint64_t run_id, bool enabled)
    : run_id_(run_id), enabled_(enabled), epoch_(Clock::now()) {}

double SpanRecorder::now_s() const {
  return std::chrono::duration<double>(Clock::now() - epoch_).count();
}

std::int32_t SpanRecorder::begin(const std::string& name) {
  if (!enabled_) return -1;
  Span span;
  span.id = static_cast<std::int32_t>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.name = name;
  span.start_s = now_s();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void SpanRecorder::end(std::int32_t id) {
  if (!enabled_) return;
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("span closed out of order");
  }
  spans_[static_cast<std::size_t>(id)].end_s = now_s();
  open_.pop_back();
}

void SpanRecorder::attribute(std::int32_t id, const std::string& layer,
                             double seconds) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<std::size_t>(id)].attributed[layer] += seconds;
}

std::map<std::string, double> SpanRecorder::self_times() const {
  // Spans nest LIFO on one thread, so a span's children are disjoint
  // sub-intervals of it and their durations simply add up.
  std::vector<double> child_time(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_time[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : spans_) {
    double attributed = 0.0;
    for (const auto& [layer, seconds] : s.attributed) {
      self[layer] += seconds;
      attributed += seconds;
    }
    self[s.name] += (s.end_s - s.start_s) -
                    child_time[static_cast<std::size_t>(s.id)] - attributed;
  }
  return self;
}

std::string SpanRecorder::chrome_trace_json() const {
  std::string out = "{\"traceEvents\":[";
  char buf[64];
  for (const Span& s : spans_) {
    if (s.id > 0) out += ",";
    out += "{\"name\":\"" + s.name + "\",\"cat\":\"perfbench\",\"ph\":\"X\"";
    std::snprintf(buf, sizeof buf, ",\"ts\":%.3f", s.start_s * 1e6);
    out += buf;
    std::snprintf(buf, sizeof buf, ",\"dur\":%.3f", (s.end_s - s.start_s) * 1e6);
    out += buf;
    out += ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" + std::to_string(s.id) +
           ",\"parent\":" + std::to_string(s.parent) + ",\"run_id\":\"" +
           std::to_string(run_id_) + "\"";
    for (const auto& [layer, seconds] : s.attributed) {
      out += ",\"" + layer + "_s\":" + format_number(seconds);
    }
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\"}\n";
  return out;
}

std::string format_number(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric");
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = std::string("{\"correct\": ") +
                    (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (!valid_metric_name(metrics[i].name)) {
      throw std::invalid_argument("invalid metric name: " + metrics[i].name);
    }
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " +
           format_number(metrics[i].value) + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
