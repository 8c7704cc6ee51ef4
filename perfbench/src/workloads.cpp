#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <stdexcept>

#include "common/fingerprint.hpp"
#include "common/rng.hpp"
#include "core/appro_alg.hpp"
#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "core/solution.hpp"
#include "io/serialize.hpp"
#include "obs/metrics.hpp"
#include "resilience/fault_plan.hpp"
#include "resilience/repair.hpp"
#include "service/service.hpp"
#include "stream/churn.hpp"
#include "stream/engine.hpp"
#include "workload/scenario_gen.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using uavcov::ApproAlgParams;
using uavcov::ApproAlgPhases;
using uavcov::ApproAlgStats;
using uavcov::CoverageModel;
using uavcov::Scenario;
using uavcov::Solution;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Output checks stay on in every build; a failure fails the operation.
void require(bool ok, const std::string& what) {
  if (!ok) throw std::runtime_error(what);
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

const std::vector<std::pair<std::string, std::string>> kPerLayer = {
    {"workload.generate_s", "s"},
    {"io.save_s", "s"},
    {"io.load_s", "s"},
    {"io.load_mb_per_s", "MB/s"},
    {"coverage.build_s", "s"},
    {"coverage.eligible_pairs", "count"},
    {"assignment.probes", "count"},
    {"assignment.probe_s", "s"},
    {"assignment.probe_p50_us", "us"},
    {"assignment.probe_p99_us", "us"},
    {"assignment.deploys", "count"},
    {"assignment.deploy_ratio", "ratio"},
    {"assignment.solves", "count"},
    {"assignment.solve_s", "s"},
    {"flow.nodes", "count"},
    {"flow.edges", "count"},
    {"flow.residual_bytes", "B_computed"},
    {"appro.prepare_s", "s"},
    {"appro.search_s", "s"},
    {"appro.finalize_s", "s"},
    {"appro.greedy_s", "s"},
    {"appro.subsets_evaluated", "count"},
    {"appro.subsets_stitched", "count"},
    {"appro.stitch_ratio", "ratio"},
    {"appro.unattributed_s", "s"},
    {"relay.stitch_s", "s"},
    {"relay.stitches", "count"},
    {"pool.tasks", "count"},
    {"pool.task_s", "s"},
    {"pool.busy_ratio", "ratio"},
    {"pool.queue_depth_max", "count"},
    {"stream.patches", "count"},
    {"stream.full_solves", "count"},
    {"stream.patch_ms_p50", "ms"},
    {"stream.full_solve_s", "s"},
    {"repair.local", "count"},
    {"repair.full", "count"},
    {"repair.local_ms", "ms"},
    {"repair.full_ms", "ms"},
    {"service.tile_s", "s"},
    {"service.attempts", "count"},
    {"service.idle_uavs", "count"},
    {"obs.overhead_ratio", "ratio"},
    {"trace.self_time_gap_s", "s"},
};

/// Per-layer values of one traced run; unset layers report 0.
class Layers {
 public:
  void set(const std::string& name, double value) {
    const bool known =
        std::any_of(kPerLayer.begin(), kPerLayer.end(),
                    [&](const auto& entry) { return entry.first == name; });
    if (!known) throw std::logic_error("unknown per-layer metric " + name);
    values_[name] = value;
  }
  std::vector<Metric> metrics() const {
    std::vector<Metric> out;
    for (const auto& [name, unit] : kPerLayer) {
      const auto it = values_.find(name);
      out.push_back({name, it == values_.end() ? 0.0 : it->second, unit});
    }
    return out;
  }

 private:
  std::map<std::string, double> values_;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

uavcov::obs::Registry& registry() { return uavcov::obs::Registry::instance(); }

/// Registry totals recorded between two snapshots (`start` may be empty).
/// Histograms that carry time hold nanoseconds.
struct RegistryWindow {
  const uavcov::obs::Snapshot& start;
  const uavcov::obs::Snapshot& end;

  double sum_s(const char* name) const {
    return hist(end, name).sum * 1e-9 - hist(start, name).sum * 1e-9;
  }
  double count(const char* name) const {
    return static_cast<double>(hist(end, name).count - hist(start, name).count);
  }
  double counter(const char* name) const {
    return static_cast<double>(end.counter_value(name) -
                               start.counter_value(name));
  }
  /// Gauge high-water mark at `end` (0 if never set).
  double high_water(const char* name) const {
    const auto* e = end.find(name);
    return e && e->high_water > 0 ? static_cast<double>(e->high_water) : 0.0;
  }

 private:
  static uavcov::obs::HistogramData hist(const uavcov::obs::Snapshot& s,
                                         const char* name) {
    const auto* e = s.find(name);
    return e ? e->hist : uavcov::obs::HistogramData{};
  }
};

/// The assignment, greedy and relay layers every workload reports.
void set_solver_layers(Layers& layers, const RegistryWindow& w) {
  const double probes = w.counter("core.assignment.probes");
  const double deploys = w.counter("core.assignment.deploys");
  layers.set("assignment.probes", probes);
  layers.set("assignment.probe_s", w.sum_s("core.assignment.probe_seconds"));
  layers.set("assignment.deploys", deploys);
  layers.set("assignment.deploy_ratio", ratio(deploys, probes));
  layers.set("assignment.solves", w.counter("core.assignment.solves"));
  layers.set("assignment.solve_s", w.sum_s("core.assignment.solve_seconds"));
  layers.set("appro.greedy_s", w.sum_s("appro.subset.greedy_seconds"));
  layers.set("relay.stitch_s", w.sum_s("appro.subset.stitch_seconds"));
  layers.set("relay.stitches", w.count("appro.subset.stitch_seconds"));
}

/// Bookkeeping shared by the workloads: every operation is attempted,
/// and one that throws (a solver error or a failed output check) is
/// counted as failed with its message.
class Ledger {
 public:
  explicit Ledger(WorkloadResult& result) : result_(result) {}

  bool op(const std::string& what, const std::function<void()>& body) {
    ++result_.attempted;
    try {
      body();
      return true;
    } catch (const std::exception& e) {
      ++result_.failed;
      result_.errors.push_back(what + ": " + e.what());
      return false;
    }
  }

 private:
  WorkloadResult& result_;
};

/// Median of `reps` timed calls of `make` (the set-up cost).
double median_setup_s(int reps, const std::function<void()>& make) {
  std::vector<double> times;
  for (int i = 0; i < reps; ++i) {
    const auto t0 = Clock::now();
    make();
    times.push_back(since(t0));
  }
  return median(times);
}

/// Closed loop: one batch after another while the next one is expected to
/// end within `seconds` of the start, judged by the longest batch so far.
/// At least one batch always runs.  Returns the peak RSS at the end of the
/// first batch: later batches repeat the same work and only add allocator
/// fragmentation, whose amount depends on how many batches fit in time.
double loop_batches(double seconds, const std::function<void()>& batch) {
  const auto t0 = Clock::now();
  double first_peak_rss_mb = 0.0;
  double longest = 0.0;
  do {
    const auto b0 = Clock::now();
    batch();
    longest = std::max(longest, since(b0));
    if (first_peak_rss_mb == 0.0) first_peak_rss_mb = peak_rss_mb();
  } while (since(t0) + longest <= seconds);
  return first_peak_rss_mb;
}

/// Registry snapshot taken at a span's start, for attribute_registry; empty
/// when the recorder is off.
uavcov::obs::Snapshot registry_mark(const SpanRecorder& rec) {
  return rec.enabled() ? registry().snapshot() : uavcov::obs::Snapshot{};
}

/// Credits the time the registry saw since `before` to inner layers of span
/// `id`: flow probes, one-shot assignment solves and relay stitching, which
/// never nest in one another.  With `stats` (the span is exactly one serial
/// appro_alg call) the solver phases are split out as well, nested as
/// prepare | search(greedy(probes) | stitch) | finalize(solve); the few
/// leftover-fill probes of finalize are credited once, to the probe layer.
void attribute_registry(SpanRecorder& rec, std::int32_t id,
                        const uavcov::obs::Snapshot& before,
                        const ApproAlgStats* stats) {
  if (!rec.enabled()) return;
  const auto after = registry().snapshot();
  const RegistryWindow w{before, after};
  const double probe = w.sum_s("core.assignment.probe_seconds");
  const double solve = w.sum_s("core.assignment.solve_seconds");
  const double stitch = w.sum_s("appro.subset.stitch_seconds");
  rec.attribute(id, "assignment.probe", probe);
  rec.attribute(id, "assignment.solve", solve);
  rec.attribute(id, "relay.stitch", stitch);
  if (stats == nullptr) return;
  const double greedy = w.sum_s("appro.subset.greedy_seconds");
  const ApproAlgPhases& phases = stats->phases;
  rec.attribute(id, "appro.prepare", phases.prepare_s + phases.plan_s);
  rec.attribute(id, "appro.search", phases.search_s - greedy - stitch);
  rec.attribute(id, "appro.greedy", greedy - probe);
  rec.attribute(id, "appro.finalize", phases.finalize_s - solve);
}

/// Self times of a traced batch, with two checks.  The sum of all self
/// times equals the root spans' duration by construction, so comparing it
/// with the batch's separately measured wall time only catches time spent
/// outside the root span.  The real guards are that no self time is
/// negative and that no layer is credited more registry time than the
/// registry recorded over `attributed`, the window holding every
/// attribute_registry call.  Slack: 0.5% of the wall + 2 ms.
void finish_trace(const SpanRecorder& rec, double wall_s, double untraced_s,
                  const RegistryWindow& attributed, WorkloadResult& result,
                  Layers& layers) {
  double total = 0.0;
  double unattributed = 0.0;
  auto self = rec.self_times();
  for (const auto& [name, seconds] : self) {
    result.self_times.push_back({name, seconds, "s"});
    total += seconds;
    if (name == "appro.solve") unattributed += seconds;
  }
  const double gap = std::abs(total - wall_s);
  const double slack = 0.005 * wall_s + 0.002;
  layers.set("appro.unattributed_s", unattributed);
  layers.set("trace.self_time_gap_s", gap);
  layers.set("obs.overhead_ratio", ratio(wall_s, untraced_s));
  result.notes.push_back("trace: layer self times sum to " +
                         format_number(total) + " s of " +
                         format_number(wall_s) + " s traced wall (slack " +
                         format_number(slack) + " s)");
  Ledger ledger(result);
  ledger.op("trace self times", [&] {
    for (const auto& m : result.self_times) {
      require(m.value >= -slack, "negative self time for layer " + m.name);
    }
    require(gap <= slack, "layer self times miss the traced wall by " +
                              format_number(gap) + " s");
    const std::pair<const char*, const char*> credited[] = {
        {"assignment.probe", "core.assignment.probe_seconds"},
        {"assignment.solve", "core.assignment.solve_seconds"},
        {"relay.stitch", "appro.subset.stitch_seconds"}};
    for (const auto& [layer, histogram] : credited) {
      const double recorded = attributed.sum_s(histogram);
      require(self[layer] <= recorded + slack,
              std::string("layer ") + layer + " credited " +
                  format_number(self[layer]) + " s of " +
                  format_number(recorded) + " s the registry recorded");
    }
  });
  result.chrome_trace = rec.chrome_trace_json();
  result.per_layer = layers.metrics();
}

std::uint64_t make_run_id(std::uint64_t seed) {
  const auto now = std::chrono::system_clock::now().time_since_epoch();
  return seed * 0x9E3779B97F4A7C15ULL ^
         static_cast<std::uint64_t>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                 .count());
}

std::int64_t eligible_pairs(const CoverageModel& coverage,
                            const Scenario& scenario) {
  std::int64_t pairs = 0;
  for (std::int32_t v = 0; v < scenario.grid.size(); ++v) {
    for (std::int32_t c = 0; c < coverage.radio_class_count(); ++c) {
      pairs += static_cast<std::int64_t>(
          coverage.eligible_users(uavcov::LocationId{v}, c).size());
    }
  }
  return pairs;
}

// --------------------------------------------------------- pinned inputs

/// What every run of a workload must reproduce.  Each workload solves one
/// pinned instance; the run's seed only relabels its users, which changes
/// neither the served count nor the deployments (marginal gains are
/// max-flow values).  At the pinned seed the users keep their generated
/// order and the whole solution fingerprint is checked as well.
struct Pinned {
  std::uint64_t seed;
  std::int64_t served;
  std::uint64_t deployments;  ///< deployment_digest of the final solution(s)
  std::uint64_t fingerprint;  ///< Solution::fingerprint at the pinned seed
};

// plan_s3: BENCH_coverage.json medium_s3 approAlg; field_ops: the stream
// and repair results recorded when the benchmark was defined.
constexpr Pinned kPlanPinned{104, 683, 0x5f6231db144f4640ULL,
                             0x50d7b3df34e15638ULL};
constexpr Pinned kFieldPinned{109, 985, 0x5a88c4badd064e46ULL,
                              0x2fd38d5ea5732db7ULL};
constexpr std::int64_t kFieldMissionServedFloor = 123;

/// FNV-1a digest of the (uav, location) pairs in order, chained onto `h`.
std::uint64_t deployment_digest(const std::vector<uavcov::Deployment>& ds,
                                std::uint64_t h = uavcov::Fnv1a::kOffsetBasis) {
  uavcov::Fnv1a f;
  f.mix(h).mix(ds.size());
  for (const auto& d : ds) {
    f.mix(static_cast<std::uint64_t>(d.uav.index()))
        .mix(static_cast<std::uint64_t>(d.loc.index()));
  }
  return f.digest();
}

/// Folds one more solution fingerprint into a running digest.
std::uint64_t chain(std::uint64_t h, std::uint64_t v) {
  uavcov::Fnv1a f;
  return f.mix(h).mix(v).digest();
}

void check_pinned(const Pinned& pin, std::uint64_t seed,
                  std::int64_t served, std::uint64_t deployments,
                  std::uint64_t fingerprint) {
  require(served == pin.served, "served " + std::to_string(served) +
                                    ", pinned " + std::to_string(pin.served));
  require(deployments == pin.deployments,
          "deployments " + hex(deployments) + ", pinned " +
              hex(pin.deployments));
  require(seed != pin.seed || fingerprint == pin.fingerprint,
          "fingerprint " + hex(fingerprint) + ", pinned " +
              hex(pin.fingerprint));
}

/// Relabels the users of `scenario` in place by a Fisher-Yates permutation
/// drawn from `seed` (identity at `pinned_seed`): user i afterwards is user
/// perm[i] before.  Returns perm.
std::vector<std::int32_t> relabel_users(Scenario& scenario, std::uint64_t seed,
                                        std::uint64_t pinned_seed) {
  auto& users = scenario.users.raw();
  std::vector<std::int32_t> perm(users.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    perm[i] = static_cast<std::int32_t>(i);
  }
  if (seed == pinned_seed) return perm;
  uavcov::Rng rng(seed);
  for (std::size_t i = users.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.next_below(i));
    std::swap(users[i - 1], users[j]);
    std::swap(perm[i - 1], perm[j]);
  }
  return perm;
}

// ---------------------------------------------------------------- plan_s3

Scenario make_plan_scenario(std::uint64_t seed) {
  uavcov::workload::ScenarioConfig config;
  config.user_count = 800;
  config.fleet.uav_count = 12;
  config.fleet.capacity_max = 150;
  uavcov::Rng rng(kPlanPinned.seed);
  Scenario scenario = uavcov::workload::make_disaster_scenario(config, rng);
  relabel_users(scenario, seed, kPlanPinned.seed);
  return scenario;
}

ApproAlgParams plan_params(std::int32_t threads) {
  ApproAlgParams params;
  params.s = 3;
  params.candidate_cap = 40;
  params.threads = threads;
  return params;
}

/// Times every IncrementalAssignment::probe of a plain greedy pass: each
/// top candidate in turn seeds the largest UAV, then every further UAV
/// (capacity order) probes every free candidate and the best is deployed.
std::vector<double> probe_latencies_us(const Scenario& scenario,
                                       const CoverageModel& coverage) {
  const auto candidates = coverage.candidate_locations(40);
  const auto order = scenario.uavs_by_capacity_desc();
  uavcov::IncrementalAssignment ia(scenario, coverage);
  std::vector<double> samples;
  for (const uavcov::LocationId seed_loc : candidates) {
    const auto scope = ia.begin_scope();
    std::vector<uavcov::LocationId> used{seed_loc};
    ia.deploy(order[0], seed_loc);
    for (std::size_t r = 1; r < order.size(); ++r) {
      std::int64_t best_gain = 0;
      uavcov::LocationId best = uavcov::kInvalidLocation;
      for (const uavcov::LocationId loc : candidates) {
        if (std::find(used.begin(), used.end(), loc) != used.end()) continue;
        const auto t0 = Clock::now();
        const std::int64_t gain = ia.probe(order[r], loc);
        samples.push_back(since(t0) * 1e6);
        if (gain > best_gain) {
          best_gain = gain;
          best = loc;
        }
      }
      if (!best.valid()) break;
      ia.deploy(order[r], best);
      used.push_back(best);
    }
    ia.end_scope(scope);
  }
  return samples;
}

struct PlanBatch {
  double serial_s = 0.0;
  double parallel_s = 0.0;
  std::int64_t served = 0;
  std::uint64_t fingerprint = 0;
  std::vector<uavcov::Deployment> deployments;
  ApproAlgStats serial_stats;
  uavcov::obs::Snapshot after_serial;  ///< registry after the serial solve.
};

WorkloadResult run_plan_s3(const RunOptions& opt) {
  WorkloadResult result;
  Ledger ledger(result);
  std::optional<Scenario> scenario;
  std::uint64_t scenario_fp = 0;
  // Set-up: generate the scenario; every repeat must reproduce the first.
  // A set-up takes ~60-90 us, so it is repeated 5000 times before each
  // solve, and its median spans the run as the solve times do.
  std::vector<double> setup_times;
  const auto set_up = [&] {
    for (int i = 0; i < 5000; ++i) {
      const auto t0 = Clock::now();
      Scenario generated = make_plan_scenario(opt.seed);
      setup_times.push_back(since(t0));
      const std::uint64_t fp = generated.fingerprint();
      require(scenario_fp == 0 || fp == scenario_fp, "generator not seeded");
      scenario_fp = fp;
      if (!scenario) scenario.emplace(std::move(generated));
    }
  };
  set_up();
  const Scenario& sc = *scenario;
  std::uint64_t reference_fp = 0;

  // One solve at `threads`.  Every solve must be valid, bit-identical to
  // the others, and match the pinned result.
  const auto solve = [&](SpanRecorder& rec, std::int32_t threads,
                         PlanBatch& out) {
    ledger.op("plan_s3 solve threads=" + std::to_string(threads), [&] {
      const auto before = registry_mark(rec);
      const auto t0 = Clock::now();
      std::optional<CoverageModel> coverage;
      {
        const ScopedSpan span(rec, "coverage.build");
        coverage.emplace(sc);
      }
      ApproAlgStats stats;
      Solution solution;
      {
        const ScopedSpan span(rec, threads == 1 ? "appro.solve"
                                                : "appro.solve_par");
        solution = uavcov::appro_alg(sc, *coverage, plan_params(threads),
                                     &stats);
        if (threads == 1) attribute_registry(rec, span.id(), before, &stats);
      }
      const double elapsed = since(t0);
      const ScopedSpan check(rec, "check.validate");
      uavcov::validate_solution(sc, *coverage, solution);
      const std::uint64_t fp = solution.fingerprint();
      if (reference_fp == 0) reference_fp = fp;
      require(fp == reference_fp, "fingerprint " + hex(fp) +
                                      " differs from " + hex(reference_fp));
      check_pinned(kPlanPinned, opt.seed, solution.served,
                   deployment_digest(solution.deployments), fp);
      if (threads == 1) {
        out.serial_s = elapsed;
        out.serial_stats = stats;
        out.after_serial = registry_mark(rec);
      } else {
        out.parallel_s = elapsed;
      }
      out.served = solution.served;
      out.fingerprint = fp;
      out.deployments = solution.deployments;
    });
  };

  // Untraced: serial solves while they fit in the run, then one solve at
  // 2 threads, which may end past it.
  SpanRecorder off(0, false);
  PlanBatch untraced;
  std::vector<double> serial_times;
  double serial_wall = 0.0;
  const double rss_mb = loop_batches(opt.seconds, [&] {
    if (!serial_times.empty()) set_up();
    const auto t0 = Clock::now();
    solve(off, 1, untraced);
    serial_wall = since(t0);
    serial_times.push_back(untraced.serial_s);
  });
  set_up();
  const auto p0 = Clock::now();
  solve(off, 2, untraced);
  const double parallel_wall = since(p0);
  const double setup_s = median(setup_times);

  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"plan_s", median(serial_times), "s"},
      {"served", static_cast<double>(untraced.served), "count"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  result.detail = {{"plan_par_s", untraced.parallel_s, "s"}};
  result.notes.push_back(
      "plan_s3: " + std::to_string(serial_times.size()) +
      " serial solve(s) and 1 at 2 threads, deployments " +
      hex(deployment_digest(untraced.deployments)) + ", fingerprint " +
      hex(reference_fp));
  if (!opt.trace) return result;

  Layers layers;
  SpanRecorder rec(make_run_id(opt.seed), true);
  auto& reg = registry();
  reg.reset();
  reg.set_enabled(true);
  PlanBatch traced;
  const auto t0 = Clock::now();
  {
    const ScopedSpan root(rec, "workload.plan_s3");
    solve(rec, 1, traced);
    solve(rec, 2, traced);
  }
  const double wall = since(t0);
  reg.set_enabled(false);
  const auto snap = reg.snapshot();
  // Solver layers from the serial solve; pool layers from the 2-thread one.
  const uavcov::obs::Snapshot empty;
  const RegistryWindow serial{empty, traced.after_serial};
  set_solver_layers(layers, serial);
  const RegistryWindow par{traced.after_serial, snap};
  const ApproAlgStats& stats = traced.serial_stats;
  layers.set("appro.prepare_s", stats.phases.prepare_s);
  layers.set("appro.search_s", stats.phases.search_s);
  layers.set("appro.finalize_s", stats.phases.finalize_s);
  layers.set("appro.subsets_evaluated",
             static_cast<double>(stats.subsets_evaluated));
  layers.set("appro.subsets_stitched",
             static_cast<double>(stats.subsets_stitched));
  layers.set("appro.stitch_ratio",
             ratio(static_cast<double>(stats.subsets_stitched),
                   static_cast<double>(stats.subsets_evaluated)));
  const double task_s = par.sum_s("common.thread_pool.task_seconds");
  layers.set("pool.tasks", par.counter("common.thread_pool.tasks"));
  layers.set("pool.task_s", task_s);
  layers.set("pool.busy_ratio", ratio(task_s, 2.0 * traced.parallel_s));
  layers.set("pool.queue_depth_max",
             par.high_water("common.thread_pool.queue_depth"));
  // Two coverage builds per batch.
  layers.set("coverage.build_s", rec.self_times()["coverage.build"] / 2.0);

  ledger.op("plan_s3 traced fingerprint", [&] {
    require(traced.fingerprint == reference_fp,
            "traced fingerprint " + hex(traced.fingerprint) +
                " differs from untraced " + hex(reference_fp));
  });
  ledger.op("plan_s3 probe timing and flow size", [&] {
    const CoverageModel coverage(sc);
    layers.set("coverage.eligible_pairs",
               static_cast<double>(eligible_pairs(coverage, sc)));
    const auto samples = probe_latencies_us(sc, coverage);
    layers.set("assignment.probe_p50_us", percentile(samples, 50.0));
    layers.set("assignment.probe_p99_us", percentile(samples, 99.0));
    result.notes.push_back("probe latency: " + std::to_string(samples.size()) +
                           " timed probes over a greedy pass");
    uavcov::IncrementalAssignment ia(sc, coverage);
    for (const auto& d : traced.deployments) ia.deploy(d.uav, d.loc);
    const double nodes = ia.flow().node_count();
    const double edges = ia.flow().edge_count();
    layers.set("flow.nodes", nodes);
    layers.set("flow.edges", edges);
    // DinicFlow layout: per edge int32 next + int32 to + int64 residual +
    // int64 initial capacity + int32 journal epoch; per node int32 head,
    // level, iterator and BFS queue slot.  Tracks node and edge counts only.
    layers.set("flow.residual_bytes", edges * 28.0 + nodes * 16.0);
  });
  finish_trace(rec, wall, serial_wall + parallel_wall, serial, result, layers);
  return result;
}

// -------------------------------------------------------------- field_ops

constexpr std::int32_t kFieldEpochs = 200;
constexpr int kFieldDrills = 3;     ///< fault drills per batch.
constexpr int kFieldMissions = 9;   ///< missions per batch.

struct FieldInputs {
  Scenario scenario;
  uavcov::stream::ChurnTrace trace;
  uavcov::resilience::FaultPlan faults;
};

ApproAlgParams field_params() {
  ApproAlgParams params;
  params.s = 2;
  params.candidate_cap = 40;
  params.threads = 1;
  return params;
}

/// The stream_churn_s1 instance with a 200-epoch churn trace and a
/// repair_drill_s2-shaped fault plan, all drawn from the pinned seed; the
/// run's seed relabels the initial users and the trace follows the
/// relabelling, so the physical operation is the same for every seed.
FieldInputs make_field_inputs(std::uint64_t seed) {
  const std::uint64_t pinned = kFieldPinned.seed;
  uavcov::workload::ScenarioConfig config;
  config.user_count = 400;
  config.fleet.uav_count = 8;
  config.fleet.capacity_max = 150;
  uavcov::Rng rng(pinned);
  FieldInputs in{uavcov::workload::make_disaster_scenario(config, rng), {}, {}};
  uavcov::stream::ChurnTraceConfig trace;
  trace.epochs = kFieldEpochs;
  trace.max_arrivals_per_epoch = 12;
  trace.max_departures_per_epoch = 8;
  trace.flash_crowd_epoch = 4;
  trace.flash_crowd_size = 40;
  in.trace = uavcov::stream::generate_trace(in.scenario, trace, pinned * 1013);
  uavcov::resilience::FaultPlanConfig faults;
  faults.events = 3;
  faults.include_gateway_loss = true;
  in.faults =
      uavcov::resilience::make_fault_plan(in.scenario, faults, pinned * 1009);

  const auto perm = relabel_users(in.scenario, seed, pinned);
  std::vector<std::int64_t> new_uid(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    new_uid[static_cast<std::size_t>(perm[i])] = static_cast<std::int64_t>(i);
  }
  const auto initial = static_cast<std::int64_t>(perm.size());
  for (auto& epoch : in.trace.epochs) {
    for (auto& event : epoch.events) {
      if (event.uid < initial) {
        event.uid = new_uid[static_cast<std::size_t>(event.uid)];
      }
    }
  }
  return in;
}

struct FieldBatch {
  std::vector<double> epoch_ms;
  std::vector<double> patch_ms;
  std::vector<double> full_solve_s;
  std::vector<double> plan_s;  ///< every from-scratch approAlg plan.
  std::vector<double> repair_ms;
  std::vector<double> repair_local_ms;
  std::vector<double> repair_full_ms;
  double trace_s = 0.0;
  std::vector<double> mission_s;
  std::int64_t patches = 0;
  std::int64_t full_solves = 0;
  std::int64_t idle_uavs = 0;
  std::int64_t served = 0;  ///< stream + repair + mission final solutions.
  std::uint64_t fingerprint = 0;  ///< all three final solutions.
  // The stream and repair results, which must match the pinned values.
  std::int64_t pinned_served = 0;
  std::uint64_t pinned_deployments = 0;
  std::uint64_t pinned_fingerprint = 0;
  std::int64_t mission_served = 0;
};

WorkloadResult run_field_ops(const RunOptions& opt) {
  WorkloadResult result;
  Ledger ledger(result);
  const std::string path =
      opt.work_dir + "/perfbench-field-" + std::to_string(opt.seed) + ".bin";
  struct RemoveFile {
    const std::string& path;
    ~RemoveFile() { std::remove(path.c_str()); }
  } remove_file{path};
  std::optional<FieldInputs> inputs;
  std::uint64_t input_fp = 0;
  std::vector<double> generate_times;
  std::vector<double> save_times;
  // Set-up: generate the inputs and write the scenario as UAVCBIN1; every
  // batch starts by loading it back.
  const double setup_s = median_setup_s(51, [&] {
    auto t0 = Clock::now();
    inputs.emplace(make_field_inputs(opt.seed));
    generate_times.push_back(since(t0));
    t0 = Clock::now();
    uavcov::io::save_scenario_file(path, inputs->scenario,
                                   uavcov::io::Format::kBinary);
    save_times.push_back(since(t0));
    const std::uint64_t fp =
        chain(chain(inputs->scenario.fingerprint(), inputs->trace.fingerprint()),
              inputs->faults.fingerprint());
    require(input_fp == 0 || fp == input_fp, "generator not seeded");
    input_fp = fp;
  });
  const FieldInputs& in = *inputs;
  const std::uint64_t scenario_fp = in.scenario.fingerprint();
  std::uint64_t reference_fp = 0;

  // One batch: load the scenario file, then the churn trace through
  // StreamEngine, the fault drill through RepairController, and a
  // fault-free 2 x 2 sharded mission.
  const auto batch = [&](SpanRecorder& rec, FieldBatch& out) {
    const ScopedSpan root(rec, "workload.field_ops");
    out = FieldBatch{};
    std::optional<Scenario> loaded;
    {
      const ScopedSpan span(rec, "io.load");
      loaded.emplace(uavcov::io::load_scenario_file(path));
    }
    std::optional<CoverageModel> loaded_coverage;
    {
      const ScopedSpan span(rec, "coverage.build");
      loaded_coverage.emplace(*loaded);
    }
    const Scenario& field = *loaded;
    const CoverageModel& base_coverage = *loaded_coverage;
    ledger.op("field_ops scenario file", [&] {
      const ScopedSpan check(rec, "check.validate");
      require(field.fingerprint() == scenario_fp,
              "loaded scenario differs from the generated one");
    });
    const auto adopt = [&](const Solution& solution, bool pinned) {
      out.served += solution.served;
      out.fingerprint = chain(out.fingerprint, solution.fingerprint());
      if (pinned) {
        out.pinned_served += solution.served;
        out.pinned_deployments =
            deployment_digest(solution.deployments, out.pinned_deployments);
        out.pinned_fingerprint =
            chain(out.pinned_fingerprint, solution.fingerprint());
      }
    };
    {
      uavcov::stream::StreamPolicy policy;
      policy.appro = field_params();
      uavcov::stream::StreamEngine engine(field, policy);
      const ScopedSpan span(rec, "stream.trace");
      const auto t0 = Clock::now();
      for (const auto& epoch : in.trace.epochs) {
        const bool ok = ledger.op("field_ops epoch", [&] {
          const ScopedSpan step(rec, "stream.step");
          const auto before = registry_mark(rec);
          const auto e0 = Clock::now();
          const auto r = engine.step(epoch);
          const double ms = since(e0) * 1e3;
          attribute_registry(rec, step.id(), before, nullptr);
          out.epoch_ms.push_back(ms);
          if (r.full_solve) {
            out.full_solve_s.push_back(ms * 1e-3);
            out.plan_s.push_back(ms * 1e-3);
          } else {
            out.patch_ms.push_back(ms);
          }
        });
        if (!ok) break;
      }
      out.trace_s = since(t0);
      out.patches = engine.patches();
      out.full_solves = engine.full_solves();
      ledger.op("field_ops stream result", [&] {
        const ScopedSpan check(rec, "check.validate");
        const Scenario& live = engine.ingest().scenario();
        const CoverageModel coverage(live);
        uavcov::validate_solution(live, coverage, engine.current());
        adopt(engine.current(), true);
      });
    }
    // The drill and the mission are short, so each repeats within a batch;
    // every repeat must reproduce the first one's result.
    std::uint64_t first_fp = 0;
    for (int drill = 0; drill < kFieldDrills; ++drill) {
      uavcov::resilience::RepairPolicy policy;
      policy.appro = field_params();
      uavcov::resilience::RepairController controller(field, policy);
      const ScopedSpan span(rec, "repair.drill");
      ledger.op("field_ops deploy", [&] {
        const ScopedSpan deploy(rec, "repair.deploy");
        const auto before = registry_mark(rec);
        const auto t0 = Clock::now();
        controller.deploy();
        out.plan_s.push_back(since(t0));
        attribute_registry(rec, deploy.id(), before, nullptr);
      });
      for (const auto& event : in.faults.events) {
        ledger.op("field_ops fault", [&] {
          const ScopedSpan fault(rec, "repair.on_fault");
          const auto before = registry_mark(rec);
          const auto t0 = Clock::now();
          const auto outcome = controller.on_fault(event);
          const double ms = since(t0) * 1e3;
          attribute_registry(rec, fault.id(), before, nullptr);
          out.repair_ms.push_back(ms);
          if (outcome.action == uavcov::resilience::RepairAction::kLocal) {
            out.repair_local_ms.push_back(ms);
          } else if (outcome.action ==
                     uavcov::resilience::RepairAction::kFullResolve) {
            out.repair_full_ms.push_back(ms);
          }
        });
      }
      ledger.op("field_ops repair result", [&] {
        const ScopedSpan check(rec, "check.validate");
        const Solution& solution = controller.current();
        uavcov::validate_solution(field, base_coverage, solution);
        if (drill == 0) first_fp = solution.fingerprint();
        require(solution.fingerprint() == first_fp, "drill not repeatable");
        if (drill + 1 == kFieldDrills) adopt(solution, true);
      });
    }
    for (int repeat = 0; repeat < kFieldMissions; ++repeat) {
      ledger.op("field_ops mission", [&] {
        uavcov::service::MissionConfig mission;
        mission.tiling.tiles_x = 2;
        mission.tiling.tiles_y = 2;
        mission.tiling.halo_cells = 1;
        mission.appro = field_params();
        mission.threads = 1;
        uavcov::service::JobResult job;
        {
          const ScopedSpan span(rec, "service.mission");
          const auto before = registry_mark(rec);
          const auto t0 = Clock::now();
          job = uavcov::service::solve_mission(field, mission);
          out.mission_s.push_back(since(t0));
          attribute_registry(rec, span.id(), before, nullptr);
        }
        const ScopedSpan check(rec, "check.validate");
        uavcov::validate_solution(field, base_coverage, job.solution);
        if (repeat == 0) first_fp = job.solution.fingerprint();
        require(job.solution.fingerprint() == first_fp,
                "mission not repeatable");
        if (repeat + 1 < kFieldMissions) return;
        out.idle_uavs =
            field.uav_count() -
            static_cast<std::int64_t>(job.solution.deployments.size());
        out.mission_served = job.solution.served;
        adopt(job.solution, false);
      });
    }
    ledger.op("field_ops pinned result", [&] {
      if (reference_fp == 0) reference_fp = out.fingerprint;
      require(out.fingerprint == reference_fp,
              "fingerprint " + hex(out.fingerprint) + " differs from " +
                  hex(reference_fp));
      check_pinned(kFieldPinned, opt.seed, out.pinned_served,
                   out.pinned_deployments, out.pinned_fingerprint);
      // The mission's count is a floor, not an identity: closing the
      // sharded-stitch quality gap is expected to raise it.
      require(out.mission_served >= kFieldMissionServedFloor,
              "mission served " + std::to_string(out.mission_served) +
                  " below the recorded " +
                  std::to_string(kFieldMissionServedFloor));
    });
  };

  SpanRecorder off(0, false);
  std::vector<double> epoch_ms, plan_s, repair_ms, trace_s, mission_s;
  FieldBatch last;
  double last_wall = 0.0;
  const double rss_mb = loop_batches(opt.seconds, [&] {
    const auto t0 = Clock::now();
    batch(off, last);
    last_wall = since(t0);
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(epoch_ms, last.epoch_ms);
    append(plan_s, last.plan_s);
    append(repair_ms, last.repair_ms);
    append(mission_s, last.mission_s);
    trace_s.push_back(last.trace_s);
  });

  const auto tail = tail_percentile(epoch_ms);
  ledger.op("field_ops epoch tail", [&] {
    require(tail.has_value(), "too few epochs for a tail percentile");
  });
  result.end_to_end = {
      {"setup_s", setup_s, "s"},
      {"plan_s", median(plan_s), "s"},
      {"served", static_cast<double>(last.served), "count"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
  result.detail = {
      {"epoch_p50_ms", median(epoch_ms), "ms"},
      {"epoch_tail_ms", tail ? tail->value : 0.0, "ms"},
      {"trace_s", median(trace_s), "s"},
      {"repair_ms", median(repair_ms), "ms"},
      {"mission_s", median(mission_s), "s"},
  };
  if (tail) {
    result.notes.push_back(
        "epoch_tail_ms is p" + format_number(tail->percentile) + " of " +
        std::to_string(tail->samples) + " epochs (" +
        std::to_string(tail->beyond) + " beyond it)");
  }
  result.notes.push_back(
      "field_ops: " + std::to_string(trace_s.size()) + " batch(es), " +
      std::to_string(last.full_solves) + " full solves per trace, " +
      "stream+repair served " + std::to_string(last.pinned_served) +
      ", deployments " + hex(last.pinned_deployments) + ", fingerprint " +
      hex(last.pinned_fingerprint) + "; mission served " +
      std::to_string(last.mission_served));
  if (!opt.trace) return result;

  Layers layers;
  SpanRecorder rec(make_run_id(opt.seed), true);
  auto& reg = registry();
  reg.reset();
  reg.set_enabled(true);
  FieldBatch traced;
  const auto t0 = Clock::now();
  batch(rec, traced);
  const double wall = since(t0);
  reg.set_enabled(false);
  const auto snap = reg.snapshot();
  const uavcov::obs::Snapshot empty;
  const RegistryWindow w{empty, snap};
  set_solver_layers(layers, w);
  layers.set("stream.patches", static_cast<double>(traced.patches));
  layers.set("stream.full_solves", static_cast<double>(traced.full_solves));
  layers.set("stream.patch_ms_p50",
             traced.patch_ms.empty() ? 0.0 : median(traced.patch_ms));
  double full_s = 0.0;
  for (const double s : traced.full_solve_s) full_s += s;
  layers.set("stream.full_solve_s", full_s);
  layers.set("repair.local", w.counter("resilience.repairs.local"));
  layers.set("repair.full", w.counter("resilience.repairs.full"));
  layers.set("repair.local_ms", traced.repair_local_ms.empty()
                                    ? 0.0
                                    : median(traced.repair_local_ms));
  layers.set("repair.full_ms", traced.repair_full_ms.empty()
                                   ? 0.0
                                   : median(traced.repair_full_ms));
  layers.set("service.tile_s", w.sum_s("service.tile_seconds"));
  layers.set("service.attempts", w.counter("service.attempts"));
  layers.set("service.idle_uavs", static_cast<double>(traced.idle_uavs));
  auto self = rec.self_times();
  layers.set("workload.generate_s", median(generate_times));
  layers.set("io.save_s", median(save_times));
  layers.set("io.load_s", self["io.load"]);
  layers.set("io.load_mb_per_s",
             ratio(w.counter("io.binary.bytes_read") / 1e6, self["io.load"]));
  layers.set("coverage.build_s", self["coverage.build"]);
  layers.set("coverage.eligible_pairs",
             static_cast<double>(
                 eligible_pairs(CoverageModel(in.scenario), in.scenario)));
  ledger.op("field_ops traced fingerprint", [&] {
    require(traced.fingerprint == reference_fp,
            "traced fingerprint " + hex(traced.fingerprint) +
                " differs from untraced " + hex(reference_fp));
  });
  finish_trace(rec, wall, last_wall, w, result, layers);
  return result;
}

}  // namespace

std::uint64_t default_seed(const std::string& workload) {
  if (workload == "plan_s3") return kPlanPinned.seed;
  if (workload == "field_ops") return kFieldPinned.seed;
  throw std::invalid_argument("unknown workload " + workload);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"plan_s3", "field_ops"};
  return names;
}

WorkloadResult run_workload(const std::string& workload,
                            const RunOptions& options) {
  if (workload == "plan_s3") return run_plan_s3(options);
  if (workload == "field_ops") return run_field_ops(options);
  throw std::invalid_argument("unknown workload " + workload);
}

}  // namespace perfbench
