// Long-running mission service front-end (docs/SERVICE.md).
//
// One *mission* = one scenario solved by spatial sharding: the area is
// tiled (service/tiling.hpp), each tile runs through the supervised
// retry / fallback / degradation ladder (service/supervisor.hpp) on a
// thread pool, and the surviving tile solutions are stitched back into a
// single §II-C-feasible Solution — cross-tile cell collisions resolved
// first-tile-wins, a disconnected merged set cut to its max-served
// component with every other UAV re-homed on that component's frontier
// (planner::fill_frontier), and a final global Lemma-1 assignment so halo-overlap users land on whichever tile's UAV
// serves them best.  What could not be saved is named, not hidden: every
// degraded tile is listed in the DegradationReport and every attempt in
// the merged journal.
//
// JobQueue is the service loop: submit many missions, each with its own
// deadline and cancellation latch, and wait for JobResults as they finish.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/sync.hpp"
#include "common/thread_pool.hpp"
#include "common/typed.hpp"
#include "core/appro_alg.hpp"
#include "core/scenario.hpp"
#include "core/solution.hpp"
#include "service/chaos.hpp"
#include "service/supervisor.hpp"
#include "service/tiling.hpp"

namespace uavcov::service {

struct MissionConfig {
  TilingParams tiling;
  SupervisorPolicy supervision;
  ApproAlgParams appro;
  /// Worker threads for the per-tile solves (ThreadPool::resolve
  /// convention: 0 = all cores).  The stitched result is bit-identical
  /// for every thread count — merging happens in tile-id order.
  std::int32_t threads = 1;
  /// Force the deep invariant audits on the stitched solution (also
  /// honored process-wide via UAVCOV_AUDIT=1).
  bool audit = false;

  /// Throws (std::invalid_argument / ContractError) on out-of-domain
  /// fields; delegates to the members' own validators.
  void validate() const;
};

/// Per-tile outcome summary, in tile-id order.
struct TileReport {
  TileId tile{0};
  TileStatus status = TileStatus::kNoUsers;
  std::int32_t attempts = 0;   ///< supervised attempts made.
  std::int64_t served = 0;     ///< users served by the tile-local solution.
  std::int32_t uavs = 0;       ///< fleet-slice size.
};

/// Names every tile that did not get a first-class approAlg solution.
/// "Degraded" = kFallback (greedy baseline saved it) or kEmpty (no
/// coverage at all); kRecovered tiles took retries but are not degraded.
struct DegradationReport {
  std::vector<TileReport> tiles;  ///< all tiles, index == TileId value.

  std::int32_t degraded_tiles() const;
  /// One line per non-kSolved tile, e.g. "tile 3: fallback (5 attempts)".
  std::string to_string() const;
};

/// Merged mission counters (journal-derived, deterministic under a fixed
/// fault plan with no real deadline or cancellation).
struct JobStats {
  std::int32_t attempts = 0;            ///< supervised attempts, all tiles.
  std::int32_t retries = 0;             ///< failed approAlg attempts.
  std::int32_t fallbacks = 0;           ///< tiles saved by the baseline.
  std::int32_t collisions_dropped = 0;  ///< cross-tile cell collisions.
  std::int32_t dropped = 0;             ///< merged deployments left out by
                                        ///< the reconnect (then re-homed).
  bool cancelled = false;               ///< latch fired during the job.
  bool deadline_hit = false;            ///< job blew `deadline_s`.
  double seconds = 0.0;                 ///< wall clock of the mission.
};

struct JobResult {
  Solution solution;                    ///< algorithm == "service.sharded".
  DegradationReport report;
  std::vector<AttemptRecord> attempts;  ///< merged journals, tile-id order.
  JobStats stats;
};

/// Solves one mission synchronously.  `chaos` (may be null) injects the
/// seeded fault plan into the tile supervisors; `cancel` (may be null) and
/// `deadline_s` (0 = none) bound the whole job.  Deterministic for fixed
/// (scenario, config, chaos) regardless of `config.threads` as long as no
/// real deadline or cancellation fires.
JobResult solve_mission(const Scenario& scenario, const MissionConfig& config,
                        const ShardFaultPlan* chaos = nullptr,
                        const CancelLatch* cancel = nullptr,
                        double deadline_s = 0.0);

/// One queued mission.
struct JobSpec {
  Scenario scenario;
  MissionConfig config;
  std::optional<ShardFaultPlan> chaos;  ///< fault-drill plan, if any.
  double deadline_s = 0.0;              ///< per-job wall-clock bound, 0 = none.
};

/// Concurrent mission front-end: a fixed worker pool draining a job
/// queue.  Jobs run one solve_mission each; results are retrieved (and
/// owned) through wait().  cancel() trips the job's latch — a running
/// job degrades its remaining tiles to empty, a queued one is marked
/// cancelled without starting.  shutdown_now() does that for every job
/// and discards the pool's pending queue.
class JobQueue {
 public:
  /// `workers` = concurrent missions (ThreadPool::resolve convention).
  explicit JobQueue(std::int32_t workers = 1);
  /// Drains remaining jobs (ThreadPool dtor semantics) — call
  /// shutdown_now() first for a fast exit.
  ~JobQueue();

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  /// Enqueue a mission; returns its job id (dense, starting at 1).
  std::int64_t submit(JobSpec spec) UAVCOV_EXCLUDES(mu_);

  /// Blocks until job `job` finishes, then returns its result (moving it
  /// out — a second wait on the same id throws std::invalid_argument, as
  /// does an id never issued).  Rethrows the job's exception, if any.
  JobResult wait(std::int64_t job) UAVCOV_EXCLUDES(mu_);

  /// Trips the job's cancellation latch.  Returns false iff the job id is
  /// unknown or the job already finished.
  bool cancel(std::int64_t job) UAVCOV_EXCLUDES(mu_);

  /// Blocks until every submitted job has finished.
  void drain() UAVCOV_EXCLUDES(mu_);

  /// Cancels every unfinished job, discards queued-but-unstarted work
  /// (ThreadPool::discard_pending), and marks those entries finished as
  /// cancelled jobs with an empty result.  Running jobs still complete
  /// their current (cooperatively cancelled) mission.
  void shutdown_now() UAVCOV_EXCLUDES(mu_);

 private:
  struct Entry {
    explicit Entry(JobSpec s) : spec(std::move(s)) {}
    JobSpec spec;
    CancelLatch latch;
    bool started = false;
    bool finished = false;
    JobResult result;
    std::exception_ptr error;
  };

  ThreadPool pool_;
  sync::Mutex mu_;
  sync::CondVar done_;  // signaled on every job completion
  std::int64_t next_id_ UAVCOV_GUARDED_BY(mu_) = 1;
  std::int64_t unfinished_ UAVCOV_GUARDED_BY(mu_) = 0;
  std::map<std::int64_t, std::shared_ptr<Entry>> jobs_ UAVCOV_GUARDED_BY(mu_);
};

}  // namespace uavcov::service
