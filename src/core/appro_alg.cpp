#include "core/appro_alg.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <queue>
#include <span>
#include <stdexcept>
#include <string>

#include "analysis/audit.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "common/thread_pool.hpp"
#include "core/assignment.hpp"
#include "core/matroid.hpp"
#include "core/planner.hpp"
#include "core/relay.hpp"
#include "graph/bfs.hpp"
#include "obs/metrics.hpp"

namespace uavcov {

namespace {

/// Solver metrics (docs/OBSERVABILITY.md).  The phase histograms receive
/// the exact ApproAlgPhases values (one Stopwatch, see appro_alg() below);
/// the per-subset histograms run on whichever thread evaluates the subset
/// and land in that thread's shard.
struct ApproMetrics {
  obs::Counter runs = obs::counter("solve.approAlg.runs");
  obs::Histogram solve_seconds = obs::histogram("solve.approAlg.seconds");
  obs::Histogram plan_seconds = obs::histogram("appro.phase.plan_seconds");
  obs::Histogram prepare_seconds =
      obs::histogram("appro.phase.prepare_seconds");
  obs::Histogram search_seconds =
      obs::histogram("appro.phase.search_seconds");
  obs::Histogram finalize_seconds =
      obs::histogram("appro.phase.finalize_seconds");
  obs::Histogram greedy_seconds =
      obs::histogram("appro.subset.greedy_seconds");
  obs::Histogram stitch_seconds =
      obs::histogram("appro.subset.stitch_seconds");
};

const ApproMetrics& appro_metrics() {
  static const ApproMetrics metrics;
  return metrics;
}

/// Cooperative deadline for ApproAlgParams::time_budget_s.  Workers poll
/// between seed subsets and between greedy rounds; once the shared flag
/// flips it stays set, so every thread winds down promptly.  A null
/// monitor (budget 0) keeps the search on the exact pre-deadline path.
struct DeadlineMonitor {
  DeadlineMonitor(const Stopwatch& watch, double budget_s)
      : watch_(watch), budget_s_(budget_s) {}

  bool expired() {
    if (expired_.load(std::memory_order_relaxed)) return true;
    if (watch_.elapsed_s() > budget_s_) {
      expired_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

  bool hit() const { return expired_.load(std::memory_order_relaxed); }

 private:
  const Stopwatch& watch_;
  double budget_s_;
  // atomic-invariant: monotonic false→true latch; relaxed order is enough
  // because a late-observed flip only delays a worker's wind-down by one
  // subset; which ranks a worker owns is fixed by rank % workers.
  std::atomic<bool> expired_{false};
};

/// Deep per-round audit (UAVCOV_AUDIT / ApproAlgParams::audit): the live
/// flow network must stay an integral maximum flow and the current greedy
/// state must stay independent in M1 ∩ M2.  Throws AuditError otherwise.
void audit_greedy_round(const IncrementalAssignment& ia,
                        const HopBudgetMatroid& m2,
                        std::span<const LocationId> chosen,
                        std::int32_t uav_count) {
  analysis::AuditReport report = analysis::audit_assignment_flow(ia);
  report.subject = "appro_alg.greedy_round";
  report.merge(analysis::audit_matroids(m2, chosen, ia.deployments(),
                                        uav_count, /*sample_rounds=*/8));
  analysis::require_clean(report);
}

/// Greedy submodular maximization under M1 ∩ M2 for one seed subset.
/// Returns the chosen locations in deployment order (UAVs are taken from
/// `uav_order` front to back, i.e. capacity descending).  Lazy and plain
/// greedy differ only in how a round picks its location; plain greedy is
/// kept as the oracle the lazy pick is tested against.
std::vector<LocationId> greedy_place(
    IncrementalAssignment& ia, const CoverageModel& coverage,
    const std::vector<LocationId>& pool, HopBudgetMatroid& m2,
    const std::vector<UavId>& uav_order, std::int32_t l_max, bool lazy,
    bool audit, std::int64_t* probes, DeadlineMonitor* deadline) {
  std::vector<LocationId> chosen;
  chosen.reserve(static_cast<std::size_t>(l_max));
  std::vector<bool> taken(pool.size(), false);  // indexed by position in `pool`

  // Lazy mode: max-heap of (stale upper bound, pool index).  Stale bounds
  // remain valid across rounds: gains shrink as the set grows (submodular)
  // and as capacities shrink (UAVs are deployed largest-first).
  std::priority_queue<std::pair<std::int64_t, std::int32_t>> heap;
  if (lazy) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      heap.emplace(coverage.max_coverage(pool[i]),
                   static_cast<std::int32_t>(i));
    }
  }
  // Both picks return a pool index, or -1 when no feasible location
  // remains.
  const auto lazy_pick = [&](UavId uav) -> std::int32_t {
    while (!heap.empty()) {
      const auto [bound, idx] = heap.top();
      heap.pop();
      const LocationId loc = pool[static_cast<std::size_t>(idx)];
      if (taken[static_cast<std::size_t>(idx)]) continue;
      // Once the hop quotas reject a location they reject it forever
      // (counters only grow), so drop it permanently.
      if (!m2.can_add(loc)) continue;
      const std::int64_t gain = ia.probe(uav, loc);
      ++*probes;
      UAVCOV_DCHECK(gain <= bound);
      // Accept when no remaining entry can beat (gain, idx) in
      // (value, index) lexicographic order — this reproduces exactly the
      // plain greedy's largest-index-among-argmax winner.
      if (heap.empty() || gain > heap.top().first ||
          (gain == heap.top().first && idx > heap.top().second)) {
        return idx;
      }
      // Stale bound refreshed; retry against the rest of the heap.
      heap.emplace(gain, idx);
    }
    return -1;
  };
  // Plain greedy probes every feasible pool entry each round.
  const auto plain_pick = [&](UavId uav) -> std::int32_t {
    std::int64_t best_gain = -1;
    std::int32_t best_idx = -1;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      if (taken[i]) continue;
      const LocationId loc = pool[i];
      if (!m2.can_add(loc)) continue;
      const std::int64_t gain = ia.probe(uav, loc);
      ++*probes;
      // `>=` keeps the largest pool index among ties — the same winner
      // the lazy heap (max by bound, then by index) accepts, so both
      // greedy modes produce identical deployments.
      if (gain >= best_gain) {
        best_gain = gain;
        best_idx = static_cast<std::int32_t>(i);
      }
    }
    return best_idx;
  };

  for (std::int32_t k = 0; k < l_max && !(lazy && heap.empty()); ++k) {
    // Cooperative deadline: a truncated greedy prefix is still a valid
    // (independent, feasible) placement, so stopping here is safe.
    if (deadline != nullptr && deadline->expired()) break;
    const UavId uav = uav_order[static_cast<std::size_t>(k)];
    const std::int32_t idx = lazy ? lazy_pick(uav) : plain_pick(uav);
    if (idx < 0) break;
    const LocationId loc = pool[static_cast<std::size_t>(idx)];
    ia.deploy(uav, loc);
    m2.add(loc);
    taken[static_cast<std::size_t>(idx)] = true;
    chosen.push_back(loc);
    if (audit) {
      audit_greedy_round(ia, m2, chosen,
                         static_cast<std::int32_t>(uav_order.size()));
    }
  }
  return chosen;
}

/// Read-only inputs shared by every subset evaluation — and, with more
/// than one worker, by every worker thread concurrently.  Nothing
/// reachable from here is mutated during the search.
struct SearchContext {
  const Scenario& scenario;
  const CoverageModel& coverage;
  const ApproAlgParams& params;
  const std::vector<LocationId>& candidates;
  const std::vector<std::vector<std::int32_t>>& cand_dist;
  const Graph& g;
  const SegmentPlan& plan;
  const std::vector<UavId>& uav_order;
  std::int32_t K;
  bool audit;
  DeadlineMonitor* deadline = nullptr;  ///< null when time_budget_s == 0.
};

/// Mutable solver state owned by exactly one worker: the live flow network
/// (whose checkpoint journal must never cross threads), the hop-distance
/// scratch, local counters, and the worker's running best.
struct WorkerState {
  explicit WorkerState(const SearchContext& ctx)
      : ia(ctx.scenario, ctx.coverage),
        hop(static_cast<std::size_t>(ctx.g.node_count())) {}

  IncrementalAssignment ia;
  std::vector<std::int32_t> hop;
  std::int64_t probes = 0;
  std::int64_t subsets_evaluated = 0;
  std::int64_t subsets_stitched = 0;
  std::int64_t best_served = -1;
  std::int64_t best_rank = -1;  // global enumeration index of the best
  std::vector<Deployment> best_deployments;
};

/// Evaluate one seed subset (positions into ctx.candidates).  `rank` is
/// the subset's global enumeration index; recording it with the worker's
/// best lets the reduction break served-count ties by enumeration order,
/// which makes the result independent of the worker count.
void evaluate_subset(const SearchContext& ctx, WorkerState& w,
                     std::span<const std::int32_t> subset,
                     std::int64_t rank) {
  ++w.subsets_evaluated;
  // Multi-source hop distances d(v) = min over seeds.
  std::fill(w.hop.begin(), w.hop.end(), kUnreachable);
  for (std::int32_t idx : subset) {
    const auto& row = ctx.cand_dist[static_cast<std::size_t>(idx)];
    for (std::size_t v = 0; v < w.hop.size(); ++v) {
      w.hop[v] = std::min(w.hop[v], row[v]);
    }
  }
  HopBudgetMatroid m2(w.hop, ctx.plan.quotas);

  const auto scope = w.ia.begin_scope();
  std::vector<LocationId> chosen;
  {
    const obs::ScopedTimer timer(appro_metrics().greedy_seconds);
    // Subset 0 runs its greedy to completion, so a binding budget still
    // yields a non-empty solution.
    chosen =
        greedy_place(w.ia, ctx.coverage, ctx.candidates, m2, ctx.uav_order,
                     ctx.plan.L_max, ctx.params.lazy_greedy, ctx.audit,
                     &w.probes, rank == 0 ? nullptr : ctx.deadline);
  }
  const auto relay = [&] {
    const obs::ScopedTimer timer(appro_metrics().stitch_seconds);
    return stitch_connected(ctx.g, chosen);
  }();
  if (relay.has_value() &&
      static_cast<std::int32_t>(relay->nodes.size()) <= ctx.K) {
    ++w.subsets_stitched;
    // Leftover UAVs (next in capacity order) hover on the relay cells —
    // the paper deploys them "in an arbitrary way"; index order here.
    for (std::size_t r = chosen.size(); r < relay->nodes.size(); ++r) {
      w.ia.deploy(ctx.uav_order[r], relay->nodes[r]);
    }
    if (ctx.audit) {
      // The stitched network must still carry a clean maximum flow, and
      // Lemma 2 promises it fits the fleet.  The auditor only reads this
      // worker's own flow network, so it is safe under concurrency.
      analysis::AuditReport report = analysis::audit_assignment_flow(w.ia);
      report.subject = "appro_alg.relay_stitch";
      analysis::require_clean(report);
    }
    if (w.ia.served() > w.best_served) {
      w.best_served = w.ia.served();
      w.best_rank = rank;
      w.best_deployments = w.ia.deployments();
    }
  }
  w.ia.end_scope(scope);
}

/// DFS enumeration of s-subsets of ctx.candidates with the optional
/// pairwise-hop pruning (prefix property: every pair in a kept subset is
/// within L_max − 1 hops, so pruning applies as soon as a prefix violates
/// it).  Calls `sink` with each surviving subset in the fixed global
/// order; stops early when sink returns false.  Every search worker runs
/// this same enumerator, so ranks agree by construction.
template <typename Sink>
void enumerate_subsets(const SearchContext& ctx, std::int32_t s,
                       Sink&& sink) {
  std::vector<std::int32_t> subset;
  subset.reserve(static_cast<std::size_t>(s));
  bool stop = false;
  const auto dfs = [&](auto&& self, std::int32_t start) -> void {
    if (stop) return;
    if (static_cast<std::int32_t>(subset.size()) == s) {
      if (!sink(subset)) stop = true;
      return;
    }
    for (std::int32_t i = start;
         i < static_cast<std::int32_t>(ctx.candidates.size()); ++i) {
      if (ctx.params.prune_seed_pairs) {
        bool compatible = true;
        for (std::int32_t j : subset) {
          const std::int32_t hops =
              ctx.cand_dist[static_cast<std::size_t>(j)]
                           [ctx.candidates[static_cast<std::size_t>(i)]
                                .index()];
          if (hops == kUnreachable || hops > ctx.plan.L_max - 1) {
            compatible = false;
            break;
          }
        }
        if (!compatible) continue;
      }
      subset.push_back(i);
      self(self, i + 1);
      subset.pop_back();
      if (stop) return;
    }
  };
  dfs(dfs, 0);
}

}  // namespace

void ApproAlgParams::validate() const {
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("ApproAlgParams: " + what);
  };
  if (s < 1) fail("s must be >= 1 (got " + std::to_string(s) + ")");
  if (candidate_cap < 0) {
    fail("candidate_cap must be >= 0 (got " + std::to_string(candidate_cap) +
         ")");
  }
  if (threads < 0) {
    fail("threads must be >= 0 (got " + std::to_string(threads) + ")");
  }
  if (max_seed_subsets < 0) {
    fail("max_seed_subsets must be >= 0 (got " +
         std::to_string(max_seed_subsets) + ")");
  }
  if (!(time_budget_s >= 0.0) || !std::isfinite(time_budget_s)) {
    fail("time_budget_s must be finite and >= 0 (got " +
         std::to_string(time_budget_s) + ")");
  }
}

Solution appro_alg(const Scenario& scenario, const ApproAlgParams& params,
                   ApproAlgStats* stats) {
  const CoverageModel coverage(scenario);
  return appro_alg(scenario, coverage, params, stats);
}

Solution appro_alg(const Scenario& scenario, const CoverageModel& coverage,
                   const ApproAlgParams& params, ApproAlgStats* stats) {
  // One Stopwatch is the single timing source: ApproAlgStats::seconds and
  // every ApproAlgPhases slot are laps of `watch`, so the phase breakdown
  // can never exceed the end-to-end wall clock (tests/obs_test.cpp).
  Stopwatch watch;
  appro_metrics().runs.inc();
  double last_mark = 0.0;
  const auto lap = [&watch, &last_mark](double& slot) {
    const double now = watch.elapsed_s();
    slot += now - last_mark;
    last_mark = now;
  };
  params.validate();
  scenario.validate();
  const std::int32_t K = scenario.uav_count();
  const bool audit = params.audit || analysis::audit_env_enabled();

  Solution solution;
  solution.algorithm = "approAlg";
  solution.user_to_deployment.assign(scenario.users.size(), -1);

  // Candidate hovering locations: cover >= 1 user, optionally top-M.
  const std::vector<LocationId> candidates =
      coverage.candidate_locations(params.candidate_cap);
  ApproAlgStats local_stats;
  ApproAlgStats& st = stats ? *stats : local_stats;
  st = ApproAlgStats{};
  st.candidates = static_cast<std::int64_t>(candidates.size());
  lap(st.phases.prepare_s);
  if (candidates.empty()) {
    // Nobody can be covered anywhere; the empty deployment is optimal.
    st.seconds = watch.elapsed_s();
    solution.solve_seconds = st.seconds;
    return solution;
  }

  // Effective s: cannot exceed K (Algorithm 1 needs s <= K) nor the number
  // of candidate locations.
  const std::int32_t s = std::max<std::int32_t>(
      1, std::min({params.s, K,
                   static_cast<std::int32_t>(candidates.size())}));
  const SegmentPlan plan = compute_segment_plan(K, s);
  st.plan = plan;
  if (audit) analysis::require_clean(analysis::audit_segment_plan(plan));
  lap(st.phases.plan_s);

  const Graph g = build_location_graph(scenario.grid, scenario.uav_range_m);
  std::vector<UavId> uav_order = scenario.uavs_by_capacity_desc();
  if (params.capacity_ascending) {
    std::reverse(uav_order.begin(), uav_order.end());
  }

  // Hop distances from every candidate (seeds are candidates): reused both
  // for the pairwise pruning filter and for per-subset multi-source
  // distances (min over the subset's rows).
  std::vector<std::vector<std::int32_t>> cand_dist;
  cand_dist.reserve(candidates.size());
  for (const LocationId c : candidates) {
    cand_dist.push_back(bfs_distances(g, to_node(c)));
  }
  lap(st.phases.prepare_s);

  // The deadline shares `watch` with the phase laps, so the budget covers
  // the whole solve (plan + prepare included), not just the search.
  std::unique_ptr<DeadlineMonitor> deadline;
  if (params.time_budget_s > 0.0) {
    deadline = std::make_unique<DeadlineMonitor>(watch, params.time_budget_s);
  }
  const SearchContext ctx{scenario, coverage, params,    candidates,
                          cand_dist, g,        plan,      uav_order,
                          K,         audit,    deadline.get()};

  // One search loop for every thread count (DESIGN.md §7).  Worker `wi`
  // walks the whole enumeration and evaluates rank r iff
  // r % workers == wi; the deadline is checked before every rank but 0.
  const std::int32_t workers = ThreadPool::resolve(params.threads);
  std::vector<std::unique_ptr<WorkerState>> states(
      static_cast<std::size_t>(workers));
  const auto search = [&](std::int32_t wi) {
    // The state lives on the worker's thread: its flow network and scratch
    // never touch another thread.  Slot `wi` is written by this worker
    // only and read after the search ends (wait_idle() synchronizes).
    auto& w = states[static_cast<std::size_t>(wi)];
    w = std::make_unique<WorkerState>(ctx);
    std::int64_t rank = 0;
    enumerate_subsets(ctx, s, [&](std::span<const std::int32_t> subset) {
      const std::int64_t r = rank++;
      if (params.max_seed_subsets > 0 && r >= params.max_seed_subsets) {
        return false;
      }
      if (r % workers != wi) return true;
      if (r > 0 && ctx.deadline != nullptr && ctx.deadline->expired()) {
        return false;
      }
      evaluate_subset(ctx, *w, subset, r);
      return true;
    });
  };
  if (workers == 1) {
    search(0);
  } else {
    ThreadPool pool(workers);
    for (std::int32_t wi = 0; wi < workers; ++wi) {
      pool.submit([&search, wi] { search(wi); });
    }
    pool.wait_idle();  // rethrows the first worker AuditError, if any
  }

  // Deterministic reduction: highest served count wins; ties go to the
  // smallest enumeration rank (each worker only replaces its best on a
  // strict improvement, so its best is its smallest-rank maximum).
  std::int64_t best_served = -1;
  std::int64_t best_rank = -1;
  std::vector<Deployment> best_deployments;
  for (auto& w : states) {
    st.probes += w->probes;
    st.subsets_evaluated += w->subsets_evaluated;
    st.subsets_stitched += w->subsets_stitched;
    if (w->best_served > best_served ||
        (w->best_served == best_served && w->best_served >= 0 &&
         w->best_rank < best_rank)) {
      best_served = w->best_served;
      best_rank = w->best_rank;
      best_deployments = std::move(w->best_deployments);
    }
  }
  lap(st.phases.search_s);

  if (best_served >= 0 && params.fill_leftover_uavs &&
      static_cast<std::int32_t>(best_deployments.size()) < K) {
    // Engineering extension (see ApproAlgParams::fill_leftover_uavs): the
    // paper grounds the K − q_j UAVs that neither serve nor relay; we
    // spend them on the winning network's frontier (core/planner.hpp).
    // Worker 0's network is empty again: every evaluation ends its scope.
    IncrementalAssignment& ia = states.front()->ia;
    const auto scope = ia.begin_scope();
    st.probes += planner::fill_frontier(ia, g, coverage, best_deployments,
                                        uav_order)
                     .probes;
    if (audit) {
      analysis::AuditReport report = analysis::audit_assignment_flow(ia);
      report.subject = "appro_alg.leftover_fill";
      analysis::require_clean(report);
    }
    if (ia.served() > best_served) {
      best_served = ia.served();
      best_deployments = ia.deployments();
    }
    ia.end_scope(scope);
  }

  if (best_served >= 0) {
    // Final optimal assignment for the winning deployment (Lemma 1).
    solution = planner::finalize(scenario, coverage,
                                 std::move(best_deployments), "approAlg");
    UAVCOV_CHECK_MSG(solution.served == best_served,
                     "final assignment disagrees with incremental count");
  }
  if (audit) {
    analysis::AuditReport report =
        analysis::audit_solution(scenario, coverage, solution);
    report.subject = "appro_alg.final_solution";
    analysis::require_clean(report);
  }
  lap(st.phases.finalize_s);
  st.deadline_hit = deadline != nullptr && deadline->hit();
  st.seconds = watch.elapsed_s();
  solution.solve_seconds = st.seconds;
  const ApproMetrics& m = appro_metrics();
  m.solve_seconds.observe_seconds(st.seconds);
  m.plan_seconds.observe_seconds(st.phases.plan_s);
  m.prepare_seconds.observe_seconds(st.phases.prepare_s);
  m.search_seconds.observe_seconds(st.phases.search_s);
  m.finalize_seconds.observe_seconds(st.phases.finalize_s);
  return solution;
}

}  // namespace uavcov
