#include "service/service.hpp"

#include <exception>
#include <stdexcept>
#include <string>
#include <utility>

#include "analysis/audit.hpp"
#include "common/check.hpp"
#include "common/stopwatch.hpp"
#include "core/assignment.hpp"
#include "core/coverage.hpp"
#include "core/planner.hpp"
#include "graph/graph.hpp"
#include "obs/metrics.hpp"

namespace uavcov::service {

namespace {

/// Mission-level metrics (docs/OBSERVABILITY.md).
struct ServiceMetrics {
  obs::Counter jobs = obs::counter("service.jobs");
  obs::Counter tiles = obs::counter("service.tiles");
  obs::Counter degraded_tiles = obs::counter("service.degraded_tiles");
  obs::Histogram job_seconds = obs::histogram("service.job_seconds");
  obs::Gauge queue_depth = obs::gauge("service.queue_depth");
};

const ServiceMetrics& service_metrics() {
  static const ServiceMetrics m;
  return m;
}

}  // namespace

void MissionConfig::validate() const {
  tiling.validate();
  supervision.validate();
  appro.validate();
  if (threads < 0) {
    throw std::invalid_argument("MissionConfig: threads must be >= 0 (got " +
                                std::to_string(threads) + ")");
  }
}

std::int32_t DegradationReport::degraded_tiles() const {
  std::int32_t degraded = 0;
  for (const TileReport& t : tiles) {
    if (t.status == TileStatus::kFallback || t.status == TileStatus::kEmpty) {
      ++degraded;
    }
  }
  return degraded;
}

std::string DegradationReport::to_string() const {
  std::string out;
  for (const TileReport& t : tiles) {
    if (t.status == TileStatus::kSolved || t.status == TileStatus::kNoUsers) {
      continue;
    }
    out += "tile " + std::to_string(t.tile.value()) + ": " +
           service::to_string(t.status) + " (" + std::to_string(t.attempts) +
           " attempts, " + std::to_string(t.served) + " served)\n";
  }
  if (out.empty()) out = "no degraded or recovered tiles\n";
  return out;
}

JobResult solve_mission(const Scenario& scenario, const MissionConfig& config,
                        const ShardFaultPlan* chaos, const CancelLatch* cancel,
                        double deadline_s) {
  config.validate();
  scenario.validate();
  const ServiceMetrics& metrics = service_metrics();
  metrics.jobs.inc();
  const obs::ScopedTimer job_timer(metrics.job_seconds);
  const Stopwatch watch;

  JobResult out;
  const JobControl control(cancel, deadline_s);
  const TilePlan plan = make_tiling(scenario, config.tiling);
  if (chaos != nullptr) chaos->validate(plan.tile_count());
  metrics.tiles.inc(plan.tile_count());

  // Phase 1 — supervised per-tile solves on the pool.  Each task writes
  // only its own pre-sized slot, so no synchronization is needed beyond
  // wait_idle(); merging below walks the slots in tile-id order, which is
  // why the result is bit-identical for every thread count.
  std::vector<TileSolve> solves(plan.tiles.size());
  {
    ThreadPool pool(ThreadPool::resolve(config.threads));
    for (const Tile& tile : plan.tiles) {
      const Tile* tp = &tile;
      TileSolve* slot = &solves[static_cast<std::size_t>(tile.id.value())];
      pool.submit([tp, slot, &config, chaos, &control] {
        if (tp->user_count() == 0) {
          slot->status = TileStatus::kNoUsers;
          slot->solution.algorithm = "service.empty";
          return;
        }
        const CoverageModel coverage(tp->restricted.scenario);
        *slot = solve_tile_supervised(*tp, coverage, config.appro,
                                      config.supervision, chaos, &control);
      });
    }
    // deadline: each tile task is bounded by the supervisor's attempt
    // ladder (max_attempts + 1 tries, each under attempt_budget_s /
    // time_budget_s) plus the job-deadline check before every attempt.
    pool.wait_idle();
  }

  // Phase 2 — merge in tile-id order: journals, reports, and deployments
  // translated back into parent ids.  Cross-tile halo overlaps can land
  // two UAVs on one parent cell; first tile wins and the loser's UAV is
  // left idle (§II-C forbids cell sharing).
  std::vector<Deployment> deployments;
  std::vector<bool> cell_taken(static_cast<std::size_t>(scenario.grid.size()),
                               false);
  std::vector<std::int32_t> tile_of_user(
      static_cast<std::size_t>(scenario.user_count()), -1);
  std::vector<std::int32_t> tile_of_uav(
      static_cast<std::size_t>(scenario.uav_count()), -1);
  out.report.tiles.reserve(plan.tiles.size());
  for (const Tile& tile : plan.tiles) {
    const TileSolve& ts = solves[static_cast<std::size_t>(tile.id.value())];
    out.report.tiles.push_back(TileReport{tile.id, ts.status, ts.attempts,
                                          ts.solution.served,
                                          tile.uav_count()});
    out.stats.attempts += ts.attempts;
    for (const AttemptRecord& rec : ts.journal) {
      if (!rec.fallback && rec.outcome != AttemptOutcome::kOk &&
          rec.outcome != AttemptOutcome::kCancelled) {
        ++out.stats.retries;
      }
      if (rec.fallback && rec.outcome == AttemptOutcome::kOk) {
        ++out.stats.fallbacks;
      }
      out.attempts.push_back(rec);
    }
    for (const UserId u : tile.restricted.users) {
      tile_of_user[static_cast<std::size_t>(u.value())] = tile.id.value();
    }
    for (const UavId k : tile.restricted.fleet) {
      UAVCOV_CHECK_MSG(tile_of_uav[static_cast<std::size_t>(k.value())] == -1,
                       "solve_mission: UAV sliced into two tile fleets");
      tile_of_uav[static_cast<std::size_t>(k.value())] = tile.id.value();
    }
    for (const Deployment& local : ts.solution.deployments) {
      const UavId uav =
          tile.restricted.fleet[static_cast<std::size_t>(local.uav.value())];
      const LocationId loc = tile.restricted.parent_cell(local.loc);
      if (cell_taken[static_cast<std::size_t>(loc.value())]) {
        ++out.stats.collisions_dropped;
        continue;
      }
      cell_taken[static_cast<std::size_t>(loc.value())] = true;
      deployments.push_back(Deployment{uav, loc});
    }
  }

  const CoverageModel coverage(scenario);
  // Phase 3 — boundary reconciliation: a merged deployment set that is
  // disconnected under R_uav keeps its max-served component, and every
  // other UAV, spare or cut off, is re-homed on that component's frontier,
  // largest capacity first (planner::fill_frontier).
  if (!deployments_connected(scenario, deployments)) {
    const Graph g = build_location_graph(scenario.grid, scenario.uav_range_m);
    IncrementalAssignment ia(scenario, coverage);
    out.stats.dropped =
        planner::fill_frontier(ia, g, coverage, deployments,
                               scenario.uavs_by_capacity_desc())
            .dropped;
    deployments = ia.deployments();
  }

  // Phase 4 — one global Lemma-1 assignment over the stitched deployment
  // set, so halo-overlap users are served by whichever tile's UAV wins.
  out.solution = planner::finalize(scenario, coverage, std::move(deployments),
                                   "service.sharded");
  out.solution.solve_seconds = watch.elapsed_s();

  const std::int32_t degraded = out.report.degraded_tiles();
  metrics.degraded_tiles.inc(degraded);
  out.stats.cancelled = control.cancelled();
  out.stats.deadline_hit = control.deadline_expired();
  out.stats.seconds = watch.elapsed_s();

  if (config.audit || analysis::audit_env_enabled()) {
    analysis::require_clean(analysis::audit_shard_partition(
        scenario, tile_of_user, tile_of_uav, plan.tile_count()));
    analysis::require_clean(
        analysis::audit_solution(scenario, coverage, out.solution));
    validate_solution(scenario, coverage, out.solution);
  }
  return out;
}

JobQueue::JobQueue(std::int32_t workers)
    : pool_(ThreadPool::resolve(workers)) {}

JobQueue::~JobQueue() = default;

std::int64_t JobQueue::submit(JobSpec spec) {
  auto entry = std::make_shared<Entry>(std::move(spec));
  std::int64_t id = 0;
  {
    const sync::LockGuard lock(mu_);
    id = next_id_++;
    jobs_.emplace(id, entry);
    ++unfinished_;
  }
  service_metrics().queue_depth.add(1);
  pool_.submit([this, entry] {
    {
      const sync::LockGuard lock(mu_);
      if (entry->finished) return;  // shutdown_now() retired it first
      entry->started = true;
    }
    JobResult result;
    std::exception_ptr error;
    try {
      const JobSpec& job = entry->spec;
      result = solve_mission(job.scenario, job.config,
                             job.chaos.has_value() ? &*job.chaos : nullptr,
                             &entry->latch, job.deadline_s);
    } catch (...) {
      error = std::current_exception();
    }
    {
      const sync::LockGuard lock(mu_);
      entry->result = std::move(result);
      entry->error = error;
      entry->finished = true;
      --unfinished_;
    }
    service_metrics().queue_depth.add(-1);
    done_.notify_all();
  });
  return id;
}

JobResult JobQueue::wait(std::int64_t job) {
  std::shared_ptr<Entry> entry;
  {
    sync::UniqueLock lock(mu_);
    const auto it = jobs_.find(job);
    if (it == jobs_.end()) {
      throw std::invalid_argument("JobQueue::wait: unknown job id " +
                                  std::to_string(job) +
                                  " (never submitted, or already waited on)");
    }
    entry = it->second;
    while (!entry->finished) {
      // deadline: every job finishes — bounded by its own deadline_s and
      // the supervisor's finite attempt ladder; shutdown_now() retires
      // even unstarted entries outright.
      done_.wait(lock);
    }
    jobs_.erase(job);  // wait() transfers ownership; a second wait throws
  }
  if (entry->error) std::rethrow_exception(entry->error);
  return std::move(entry->result);
}

bool JobQueue::cancel(std::int64_t job) {
  const sync::LockGuard lock(mu_);
  const auto it = jobs_.find(job);
  if (it == jobs_.end() || it->second->finished) return false;
  it->second->latch.cancel();
  return true;
}

void JobQueue::drain() {
  sync::UniqueLock lock(mu_);
  while (unfinished_ > 0) {
    // deadline: bounded by the slowest outstanding job's own deadline_s
    // and finite attempt ladder; shutdown_now() zeroes the count outright.
    done_.wait(lock);
  }
}

void JobQueue::shutdown_now() {
  std::int64_t retired = 0;
  {
    const sync::LockGuard lock(mu_);
    for (auto& [id, entry] : jobs_) {
      if (entry->finished) continue;
      entry->latch.cancel();
      if (!entry->started) {
        // Retire it here; the still-queued closure sees `finished` and
        // returns without running the mission.
        entry->finished = true;
        entry->result.stats.cancelled = true;
        --unfinished_;
        ++retired;
      }
    }
  }
  pool_.discard_pending();
  if (retired > 0) {
    service_metrics().queue_depth.add(-retired);
  }
  done_.notify_all();
}

}  // namespace uavcov::service
