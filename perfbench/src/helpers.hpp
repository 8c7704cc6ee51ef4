// Measurement helpers for the perfbench binary: order statistics, the tail
// percentile rule, a span recorder with self-time accounting and Chrome
// trace-event output, and the metric table the run prints.
//
// Everything here is independent of uavcov so the helpers can be unit
// tested on their own (perfbench/tests/helpers_test.cpp).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count).
/// Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// Nearest-rank percentile: the value at rank ceil(p/100 * n) (1-based) of
/// the sorted samples.  `p` in (0, 100].
double percentile(std::vector<double> values, double p);

/// A tail percentile chosen by the reporting rule: the highest percentile
/// of the fixed ladder {50, 90, 95, 99, 99.9} that still has at least
/// `min_beyond` samples strictly above its rank.
struct TailPercentile {
  double percentile = 0.0;  ///< the chosen ladder step, e.g. 95.
  double value = 0.0;       ///< sample value at that rank.
  std::size_t samples = 0;  ///< total sample count.
  std::size_t beyond = 0;   ///< samples ranked above the chosen one.
};

/// Applies the rule above.  Returns nullopt when even the median has fewer
/// than `min_beyond` samples beyond it (fewer than 2 * min_beyond samples).
std::optional<TailPercentile> tail_percentile(std::vector<double> values,
                                              std::size_t min_beyond = 10);

/// True iff `name` is a valid metric name: 1..64 characters from
/// [A-Za-z0-9_.-], starting with a letter or a digit.
bool valid_metric_name(const std::string& name);

/// One recorded interval.  Times are seconds since the recorder's epoch.
struct Span {
  std::int32_t id = 0;
  std::int32_t parent = -1;  ///< -1 for a root span.
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
  /// Time inside this span that the program's own metrics registry
  /// attributes to named inner layers (e.g. flow probes inside a solve).
  /// Counted like child spans when computing self time.
  std::map<std::string, double> attributed;
};

/// In-memory span recorder.  Spans nest by begin/end order on one thread;
/// all spans of a run share `run_id`.  Disabled recorders keep nothing and
/// never read the clock.
class SpanRecorder {
 public:
  SpanRecorder(std::uint64_t run_id, bool enabled);

  bool enabled() const { return enabled_; }

  /// Opens a span as a child of the innermost open span; returns its id
  /// (-1 when disabled).
  std::int32_t begin(const std::string& name);
  /// Closes span `id`, which must be the innermost open span.
  void end(std::int32_t id);
  /// Records `seconds` of span `id`'s interval as spent in inner layer
  /// `layer` (no-op when disabled or id < 0).
  void attribute(std::int32_t id, const std::string& layer, double seconds);

  const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every layer, summed over spans of that name: a span's
  /// duration minus its children's durations minus its attributed
  /// inner-layer time; attributed time is credited to its own layer name.
  std::map<std::string, double> self_times() const;

  /// Chrome trace-event JSON ("X" complete events, microseconds).
  std::string chrome_trace_json() const;

 private:
  using Clock = std::chrono::steady_clock;
  double now_s() const;

  std::uint64_t run_id_;
  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> open_;
};

/// RAII span: begin on construction, end on destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const std::string& name)
      : recorder_(recorder), id_(recorder.begin(name)) {}
  ~ScopedSpan() { recorder_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int32_t id() const { return id_; }

 private:
  SpanRecorder& recorder_;
  std::int32_t id_;
};

/// One reported number.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Formats `value` with enough digits to round-trip.
std::string format_number(double value);

/// The result line: {"correct":..,"attempted":..,"failed":..,"metrics":{..}}.
std::string result_json(bool correct, std::int64_t attempted,
                        std::int64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
