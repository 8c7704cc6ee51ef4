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
  // subset, never changes which subsets count as evaluated (the claim
  // order itself is serialized through the `next` ticket below).
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
/// `uav_order` front to back, i.e. capacity descending).
std::vector<LocationId> greedy_place(
    IncrementalAssignment& ia, const CoverageModel& coverage,
    const std::vector<LocationId>& pool, HopBudgetMatroid& m2,
    const std::vector<UavId>& uav_order, std::int32_t l_max, bool lazy,
    bool audit, std::int64_t* probes, DeadlineMonitor* deadline) {
  std::vector<LocationId> chosen;
  chosen.reserve(static_cast<std::size_t>(l_max));
  std::vector<bool> taken;  // indexed by position in `pool`

  if (lazy) {
    // Max-heap of (stale upper bound, pool index).  Stale bounds remain
    // valid across iterations: gains shrink as the set grows (submodular)
    // and as capacities shrink (UAVs are deployed largest-first).
    std::priority_queue<std::pair<std::int64_t, std::int32_t>> heap;
    for (std::size_t i = 0; i < pool.size(); ++i) {
      heap.emplace(coverage.max_coverage(pool[i]),
                   static_cast<std::int32_t>(i));
    }
    taken.assign(pool.size(), false);
    for (std::int32_t k = 0; k < l_max && !heap.empty(); ++k) {
      // Cooperative deadline: a truncated greedy prefix is still a valid
      // (independent, feasible) placement, so stopping here is safe.
      if (deadline != nullptr && deadline->expired()) break;
      const UavId uav = uav_order[static_cast<std::size_t>(k)];
      LocationId pick = kInvalidLocation;
      std::int32_t pick_idx = -1;
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
        const bool accept =
            heap.empty() || gain > heap.top().first ||
            (gain == heap.top().first && idx > heap.top().second);
        if (accept) {
          pick = loc;
          pick_idx = idx;
          break;
        }
        // Stale bound refreshed; retry against the rest of the heap.
        heap.emplace(gain, idx);
      }
      if (pick == kInvalidLocation) break;  // no feasible location remains
      ia.deploy(uav, pick);
      m2.add(pick);
      taken[static_cast<std::size_t>(pick_idx)] = true;
      chosen.push_back(pick);
      if (audit) {
        audit_greedy_round(ia, m2, chosen,
                           static_cast<std::int32_t>(uav_order.size()));
      }
    }
  } else {
    // Plain greedy: probe every feasible pool entry each iteration.
    taken.assign(pool.size(), false);
    for (std::int32_t k = 0; k < l_max; ++k) {
      if (deadline != nullptr && deadline->expired()) break;
      const UavId uav = uav_order[static_cast<std::size_t>(k)];
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
      if (best_idx < 0) break;
      const LocationId loc = pool[static_cast<std::size_t>(best_idx)];
      ia.deploy(uav, loc);
      m2.add(loc);
      taken[static_cast<std::size_t>(best_idx)] = true;
      chosen.push_back(loc);
      if (audit) {
        audit_greedy_round(ia, m2, chosen,
                           static_cast<std::int32_t>(uav_order.size()));
      }
    }
  }
  return chosen;
}

/// Read-only inputs shared by every subset evaluation — and, on the
/// parallel path, by every worker thread concurrently.  Nothing reachable
/// from here is mutated during the search.
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
/// (whose FlowProbe journals must never cross threads), the hop-distance
/// scratch, local counters, and the worker's running best.  The parallel
/// engine gives each thread its own instance; the serial path uses one.
struct WorkerState {
  explicit WorkerState(const SearchContext& ctx)
      : ia(ctx.scenario, ctx.coverage),
        hop(static_cast<std::size_t>(ctx.g.node_count())) {}

  IncrementalAssignment ia;
  std::vector<std::int32_t> hop;
  std::int64_t probes = 0;
  std::int64_t subsets_stitched = 0;
  std::int64_t best_served = -1;
  std::int64_t best_rank = -1;  // global enumeration index of the best
  std::vector<Deployment> best_deployments;
};

/// Evaluate one seed subset (positions into ctx.candidates).  `rank` is
/// the subset's global enumeration index; recording it with the worker's
/// best lets the reduction break served-count ties by enumeration order,
/// which makes the parallel search bit-identical to the serial one.
void evaluate_subset(const SearchContext& ctx, WorkerState& w,
                     std::span<const std::int32_t> subset,
                     std::int64_t rank) {
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
    chosen =
        greedy_place(w.ia, ctx.coverage, ctx.candidates, m2, ctx.uav_order,
                     ctx.plan.L_max, ctx.params.lazy_greedy, ctx.audit,
                     &w.probes, ctx.deadline);
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
/// order; stops early when sink returns false.  Both the serial search
/// and the parallel work-list builder run this same enumerator, so ranks
/// agree by construction.
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

  const std::int32_t requested = ThreadPool::resolve(params.threads);

  std::int64_t best_served = -1;
  std::int64_t best_rank = -1;
  std::vector<Deployment> best_deployments;
  // Any worker's state can host the leftover-fill phase afterwards (each
  // evaluation ends with end_scope, so the flow network is back to empty).
  std::unique_ptr<WorkerState> fill_state;

  if (requested <= 1) {
    // Serial path: stream subsets straight out of the enumerator, exactly
    // as before the parallel engine existed.
    auto state = std::make_unique<WorkerState>(ctx);
    std::int64_t rank = 0;
    enumerate_subsets(ctx, s, [&](const std::vector<std::int32_t>& subset) {
      // Deadline check between subsets; the first subset always runs so a
      // binding budget still yields a non-trivial solution.
      if (rank > 0 && ctx.deadline != nullptr && ctx.deadline->expired()) {
        return false;
      }
      ++st.subsets_enumerated;
      ++st.subsets_evaluated;
      evaluate_subset(ctx, *state, subset, rank);
      ++rank;
      return !(params.max_seed_subsets > 0 &&
               st.subsets_evaluated >= params.max_seed_subsets);
    });
    best_served = state->best_served;
    best_rank = state->best_rank;
    best_deployments = std::move(state->best_deployments);
    st.probes += state->probes;
    st.subsets_stitched += state->subsets_stitched;
    fill_state = std::move(state);
  } else {
    // Parallel path.  Materialize the work list first — enumeration is
    // cheap next to evaluation (each evaluation runs a full greedy with
    // flow probes) and a fixed list gives every subset its global rank up
    // front.  The budget truncates the list to exactly the subsets the
    // serial path would have evaluated.
    std::vector<std::int32_t> flat;
    enumerate_subsets(ctx, s, [&](const std::vector<std::int32_t>& subset) {
      flat.insert(flat.end(), subset.begin(), subset.end());
      ++st.subsets_enumerated;
      return !(params.max_seed_subsets > 0 &&
               st.subsets_enumerated >= params.max_seed_subsets);
    });
    const std::int64_t total = st.subsets_enumerated;
    st.subsets_evaluated = total;

    if (total > 0) {
      const std::int32_t workers = static_cast<std::int32_t>(
          std::min<std::int64_t>(requested, total));
      // Lock-free reduction state: slot `wi` is written by exactly one
      // worker (publication to this thread happens-before wait_idle()
      // returns, through the pool's internal mutex); the reduction below
      // reads the slots single-threaded afterwards, so no lock is needed.
      std::vector<std::unique_ptr<WorkerState>> states(
          static_cast<std::size_t>(workers));
      // atomic-invariant: fetch_add ticket dispenser — every rank in
      // [0, total) is claimed by exactly one worker, so no subset is
      // evaluated twice or skipped; relaxed order suffices because each
      // worker only consumes the value it drew itself.
      std::atomic<std::int64_t> next{0};
      // atomic-invariant: count of claims that proceeded to evaluation;
      // monotone increments only, read once after wait_idle() (which
      // synchronizes-with every worker's increments via the pool's mutex).
      std::atomic<std::int64_t> evaluated{0};
      ThreadPool pool(workers);
      for (std::int32_t wi = 0; wi < workers; ++wi) {
        pool.submit([&ctx, &states, &next, &evaluated, &flat, s, total, wi] {
          // Per-worker state lives on the worker thread: its DinicFlow,
          // probe journals, and scratch never touch another thread.
          auto state = std::make_unique<WorkerState>(ctx);
          for (;;) {
            const std::int64_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= total) break;
            // Cooperative deadline: stop claiming work once the budget is
            // spent, except for subset 0 — someone always evaluates it so
            // a binding budget still yields a non-trivial solution.
            if (i > 0 && ctx.deadline != nullptr && ctx.deadline->expired())
              break;
            evaluated.fetch_add(1, std::memory_order_relaxed);
            evaluate_subset(
                ctx, *state,
                std::span<const std::int32_t>(
                    flat.data() + i * s, static_cast<std::size_t>(s)),
                i);
          }
          states[static_cast<std::size_t>(wi)] = std::move(state);
        });
      }
      pool.wait_idle();  // rethrows the first worker AuditError, if any
      st.subsets_evaluated = evaluated.load(std::memory_order_relaxed);

      // Deterministic reduction: highest served count wins; ties go to
      // the smallest enumeration rank — the subset the serial loop would
      // have kept (it only replaces on a strict improvement).
      for (auto& state : states) {
        if (!state) continue;
        st.probes += state->probes;
        st.subsets_stitched += state->subsets_stitched;
        if (state->best_served > best_served ||
            (state->best_served == best_served && state->best_served >= 0 &&
             state->best_rank < best_rank)) {
          best_served = state->best_served;
          best_rank = state->best_rank;
          best_deployments = state->best_deployments;
        }
        if (!fill_state) fill_state = std::move(state);
      }
    }
  }
  lap(st.phases.search_s);

  if (best_served >= 0 && params.fill_leftover_uavs &&
      static_cast<std::int32_t>(best_deployments.size()) < K) {
    // Engineering extension (see ApproAlgParams::fill_leftover_uavs): the
    // paper grounds the K − q_j UAVs that neither serve nor relay; we
    // spend them on the winning network's frontier (core/planner.hpp).
    if (!fill_state) fill_state = std::make_unique<WorkerState>(ctx);
    IncrementalAssignment& ia = fill_state->ia;
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
