// The benchmark workloads.  Each builds its inputs from the seed,
// runs closed-loop batches of operations through uavcov's public entry
// points for the requested number of seconds, checks every output, and
// returns its metrics.  See perfbench/README.md for what each one loads
// and bypasses.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "helpers.hpp"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 0;
  /// Measuring time (--seconds); at least one batch always runs.
  double seconds = 0.0;
  bool trace = false;
  /// Directory for files the run writes (the field_ops scenario file).
  std::string work_dir = ".";
};

struct WorkloadResult {
  /// Gated end-to-end metrics; the same names on every workload.
  std::vector<Metric> end_to_end;
  /// End-to-end numbers that exist only on this workload (printed, and
  /// compared by perfbench/steadiness.py, but not in the result line).
  std::vector<Metric> detail;
  /// Every per-layer metric (traced runs only); 0 where the workload
  /// bypasses the layer.
  std::vector<Metric> per_layer;
  /// Human-readable statements, e.g. which percentile a tail is.
  std::vector<std::string> notes;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;
  /// Traced runs: the span recorder's self time per layer and the
  /// Chrome trace-event document.
  std::vector<Metric> self_times;
  std::string chrome_trace;
};

/// Default (pinned) seed of each workload; results at these seeds are
/// checked against recorded served counts and fingerprints.
std::uint64_t default_seed(const std::string& workload);

/// Names accepted by run_workload.
const std::vector<std::string>& workload_names();

/// Runs one workload.  Throws std::invalid_argument on an unknown name.
WorkloadResult run_workload(const std::string& workload,
                            const RunOptions& options);

}  // namespace perfbench
