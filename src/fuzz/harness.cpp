#include "fuzz/harness.hpp"

#include <array>
#include <sstream>
#include <string_view>
#include <type_traits>
#include <vector>

#include "analysis/audit.hpp"
#include "common/csv.hpp"
#include "core/appro_alg.hpp"
#include "core/assignment.hpp"
#include "core/exhaustive.hpp"
#include "core/segment_plan.hpp"
#include "core/solution.hpp"
#include "fuzz/oracle_matching.hpp"
#include "fuzz/scenario_decoder.hpp"
#include "fuzz/stream_decoder.hpp"
#include "io/serialize.hpp"
#include "io/trace.hpp"
#include "resilience/impact.hpp"
#include "resilience/repair.hpp"
#include "service/service.hpp"
#include "stream/engine.hpp"

namespace uavcov::fuzz {

namespace {

void require(bool condition, const std::string& what) {
  if (!condition) throw FuzzFailure(what);
}

/// Decodes up to `max_deployments` deployments with pairwise-distinct UAVs
/// and locations.  Linear probing over the id spaces keeps the decode
/// total (never fails) and deterministic.
std::vector<Deployment> decode_deployments(ByteReader& r,
                                           const Scenario& scenario,
                                           std::int32_t max_deployments) {
  const std::int32_t m = scenario.grid.size();
  const std::int32_t K = scenario.uav_count();
  const auto want = static_cast<std::int32_t>(
      r.take_int(0, std::min({max_deployments, m, K})));
  std::vector<bool> uav_used(static_cast<std::size_t>(K), false);
  std::vector<bool> loc_used(static_cast<std::size_t>(m), false);
  std::vector<Deployment> deployments;
  for (std::int32_t i = 0; i < want; ++i) {
    auto k = static_cast<std::int32_t>(r.take_int(0, K - 1));
    while (uav_used[static_cast<std::size_t>(k)]) k = (k + 1) % K;
    auto loc = static_cast<std::int32_t>(r.take_int(0, m - 1));
    while (loc_used[static_cast<std::size_t>(loc)]) loc = (loc + 1) % m;
    uav_used[static_cast<std::size_t>(k)] = true;
    loc_used[static_cast<std::size_t>(loc)] = true;
    deployments.push_back({UavId{k}, LocationId{loc}});
  }
  return deployments;
}

/// Feasibility of an assignment vector against first-principles geometry:
/// every mapping in range, every served user eligible under its serving
/// UAV (range + rate via CoverageModel::is_eligible), every per-UAV load
/// within capacity, and the served count consistent.
void check_assignment_feasible(const Scenario& scenario,
                               const CoverageModel& coverage,
                               const std::vector<Deployment>& deployments,
                               const std::vector<std::int32_t>& assignment,
                               std::int64_t claimed_served,
                               const std::string& label) {
  require(assignment.size() == scenario.users.size(),
          label + ": assignment vector size mismatch");
  std::vector<std::int64_t> load(deployments.size(), 0);
  std::int64_t served = 0;
  for (std::size_t u = 0; u < assignment.size(); ++u) {
    const std::int32_t d = assignment[u];
    if (d == -1) continue;
    require(d >= 0 && static_cast<std::size_t>(d) < deployments.size(),
            label + ": assignment references unknown deployment");
    const Deployment& dep = deployments[static_cast<std::size_t>(d)];
    require(coverage.is_eligible(scenario, UserId{u}, dep.loc, dep.uav),
            label + ": served user " + std::to_string(u) +
                " ineligible under its UAV");
    ++load[static_cast<std::size_t>(d)];
    ++served;
  }
  for (std::size_t d = 0; d < deployments.size(); ++d) {
    const auto cap =
        scenario.fleet[deployments[d].uav].capacity;
    require(load[d] <= cap, label + ": deployment " + std::to_string(d) +
                                " over capacity");
  }
  require(served == claimed_served,
          label + ": served count inconsistent with assignment vector");
}

/// Everything except wall-clock must match bit-for-bit between the serial
/// and parallel seed-subset searches (DESIGN.md §7's determinism contract).
void check_solutions_identical(const Solution& a, const Solution& b) {
  require(a.algorithm == b.algorithm, "serial/parallel algorithm mismatch");
  require(a.served == b.served, "serial/parallel served mismatch");
  require(a.deployments == b.deployments,
          "serial/parallel deployments mismatch");
  require(a.user_to_deployment == b.user_to_deployment,
          "serial/parallel assignment mismatch");
}

template <typename T>
std::string serialized(const T& value, io::Format format) {
  std::ostringstream out;
  if constexpr (std::is_same_v<T, Scenario>) {
    io::save_scenario(out, value, format);
  } else if constexpr (std::is_same_v<T, stream::ChurnTrace>) {
    io::save_trace(out, value, format);
  } else {
    io::save_solution(out, value, format);
  }
  return out.str();
}

template <typename T>
std::string to_text(const T& value) {
  return serialized(value, io::Format::kText);
}

template <typename T>
std::string to_binary(const T& value) {
  return serialized(value, io::Format::kBinary);
}

}  // namespace

void run_assignment_harness(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  ScenarioLimits limits;
  limits.max_cols = 4;
  limits.max_rows = 4;
  limits.max_users = 12;    // oracle tractability ceiling
  limits.max_uavs = 4;
  limits.max_capacity = 5;  // capacity state space stays tiny
  const Scenario scenario = decode_scenario(r, limits);
  const CoverageModel coverage(scenario);
  const std::vector<Deployment> deployments =
      decode_deployments(r, scenario, 4);

  const AssignmentResult flow_result =
      solve_assignment(scenario, coverage, deployments);
  const MatchingResult oracle =
      oracle_max_matching(make_matching_instance(scenario, coverage,
                                                 deployments));

  require(flow_result.served == oracle.served,
          "max-flow served " + std::to_string(flow_result.served) +
              " != oracle optimum " + std::to_string(oracle.served));
  check_assignment_feasible(scenario, coverage, deployments,
                            flow_result.user_to_deployment.raw(),
                            flow_result.served, "max-flow");
  check_assignment_feasible(scenario, coverage, deployments,
                            oracle.user_to_deployment, oracle.served,
                            "oracle witness");

  // Incremental leg: the same deployments one at a time through the probe
  // and deploy path Algorithm 2's greedy reads its marginal gains from.
  IncrementalAssignment ia(scenario, coverage);
  for (const Deployment& d : deployments) {
    const std::int64_t probed = ia.probe(d.uav, d.loc);
    const std::int64_t gained = ia.deploy(d.uav, d.loc);
    require(probed == gained, "probe gain " + std::to_string(probed) +
                                  " != deploy gain " + std::to_string(gained));
  }
  require(ia.served() == oracle.served,
          "incremental served " + std::to_string(ia.served()) +
              " != oracle optimum " + std::to_string(oracle.served));
  analysis::require_clean(analysis::audit_assignment_flow(ia));
}

void run_appro_alg_harness(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  ScenarioLimits limits;
  limits.max_cols = 4;   // m <= 16 keeps the audited pipeline fast and the
  limits.max_rows = 4;   // exhaustive comparison reachable
  limits.max_users = 16;
  limits.max_uavs = 5;
  limits.max_capacity = 8;
  const Scenario scenario = decode_scenario(r, limits);
  const CoverageModel coverage(scenario);

  ApproAlgParams params;
  params.s = static_cast<std::int32_t>(
      r.take_int(1, std::min<std::int64_t>(3, scenario.uav_count())));
  params.candidate_cap = r.take_bool()
                             ? 0
                             : static_cast<std::int32_t>(r.take_int(1, 8));
  params.prune_seed_pairs = r.take_bool();
  params.lazy_greedy = r.take_bool();
  params.capacity_ascending = r.take_bool();
  params.fill_leftover_uavs = r.take_bool();
  params.max_seed_subsets = 200;  // bounded runtime on pathological inputs
  params.audit = true;            // every invariant auditor forced on

  params.threads = 1;
  ApproAlgStats serial_stats;
  const Solution serial = appro_alg(scenario, coverage, params, &serial_stats);

  params.threads = 4;
  ApproAlgStats parallel_stats;
  const Solution parallel =
      appro_alg(scenario, coverage, params, &parallel_stats);

  check_solutions_identical(serial, parallel);
  require(serial_stats.candidates == parallel_stats.candidates &&
              serial_stats.subsets_evaluated ==
                  parallel_stats.subsets_evaluated &&
              serial_stats.subsets_stitched ==
                  parallel_stats.subsets_stitched &&
              serial_stats.probes == parallel_stats.probes,
          "serial/parallel search counters diverge");

  validate_solution(scenario, coverage, serial);  // full §II-C feasibility
  // approAlg returns before Algorithm 1 when no location covers any user,
  // leaving stats.plan default-constructed; only audit a computed plan.
  if (serial_stats.plan.K > 0) {
    analysis::require_clean(analysis::audit_segment_plan(serial_stats.plan));
    require(serial_stats.plan.relay_bound <= scenario.uav_count(),
            "Lemma 2 relay bound exceeds K");
  } else {
    require(serial_stats.candidates == 0 && serial.served == 0,
            "plan missing despite candidate locations");
  }

  const std::int64_t ceiling =
      std::min<std::int64_t>(scenario.total_capacity(),
                             scenario.user_count());
  require(serial.served <= ceiling, "served exceeds capacity/user ceiling");

  // Tiny instances: the exhaustive optimum bounds approAlg from above.
  if (scenario.grid.size() <= 12 && scenario.uav_count() <= 3 &&
      scenario.user_count() <= 10) {
    const Solution optimum = exhaustive_optimal(scenario, coverage);
    validate_solution(scenario, coverage, optimum);
    require(serial.served <= optimum.served,
            "approAlg served " + std::to_string(serial.served) +
                " exceeds the exhaustive optimum " +
                std::to_string(optimum.served));
  }
}

void run_segment_plan_harness(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  const auto K = static_cast<std::int32_t>(r.take_int(1, 64));
  const auto s = static_cast<std::int32_t>(
      r.take_int(1, std::min<std::int64_t>(K, 8)));

  const SegmentPlan plan = compute_segment_plan(K, s);
  analysis::require_clean(analysis::audit_segment_plan(plan));
  require(plan.K == K && plan.s == s, "plan echoes wrong K/s");
  require(plan.L_max >= s, "L_max below the seed count");

  // The balanced-profile search must match the exhaustive composition
  // minimum (kept small: the brute force is exponential in L - s).
  if (plan.L_max - plan.s <= 14 && s <= 4) {
    require(plan.relay_bound == min_relay_bound_brute_force(s, plan.L_max),
            "balanced budget profile is not optimal");
  }

  // Theorem 1's ratio: defined for K >= 2 within its domain; a clean
  // ContractError outside the domain is correct, anything else is not.
  if (K >= 2) {
    try {
      const double ratio = theoretical_approximation_ratio(K, s);
      require(ratio > 0.0 && ratio <= 1.0 / 3.0,
              "approximation ratio outside (0, 1/3]");
    } catch (const ContractError&) {
      // Out-of-domain (K, s) — documented behavior.
    }
  }
}

void run_serialize_roundtrip_harness(const std::uint8_t* data,
                                     std::size_t size) {
  ByteReader r(data, size);
  if (r.take_bool()) {
    // Raw mode: arbitrary bytes through every parser.  Success or a
    // documented error type are both fine; UB, crashes, and unexpected
    // exception types are what the sanitizers + this catch list reject.
    const std::string text = r.take_rest_as_string();
    try {
      // load_scenario sniffs the magic, so raw bytes starting with
      // "UAVCBIN1" drive the binary parser (header/table/checksum
      // validation) and everything else drives the text parser.
      const Scenario scenario = io::load_scenario(std::string_view(text));
      // Anything that parsed must re-serialize to a fixed point, in both
      // formats.
      const std::string saved = to_text(scenario);
      require(to_text(io::load_scenario(std::string_view(saved))) == saved,
              "re-serialized scenario is not a fixed point");
      const std::string binary = to_binary(scenario);
      require(to_binary(io::load_scenario(std::string_view(binary))) ==
                  binary,
              "re-serialized binary scenario is not a fixed point");
    } catch (const ContractError&) {
    } catch (const std::invalid_argument&) {
    }
    try {
      std::istringstream in(text);
      (void)io::load_solution(in, /*user_count=*/16);
    } catch (const ContractError&) {
    } catch (const std::invalid_argument&) {
    }
    try {
      // load_trace sniffs "UAVCTRC1" the same way; a trace that parses
      // must also re-save to a fixed point in both formats.
      const stream::ChurnTrace trace = io::load_trace(std::string_view(text));
      for (const io::Format format : {io::Format::kText, io::Format::kBinary}) {
        const std::string saved = serialized(trace, format);
        require(serialized(io::load_trace(std::string_view(saved)), format) ==
                    saved,
                "re-serialized trace is not a fixed point");
      }
    } catch (const ContractError&) {
    } catch (const std::invalid_argument&) {
    }
    try {
      (void)parse_csv_row(text);
    } catch (const std::invalid_argument&) {
    }
    return;
  }

  // Structured mode: a valid scenario/solution pair must round-trip to the
  // exact same bytes (the format writes max_digits10 floats).
  ScenarioLimits limits;
  const Scenario scenario = decode_scenario(r, limits);
  const std::string text = to_text(scenario);
  Scenario loaded = scenario;
  try {
    loaded = io::load_scenario(std::string_view(text));
  } catch (const ContractError& e) {
    throw FuzzFailure(std::string("saved scenario failed to load: ") +
                      e.what());
  }
  require(to_text(loaded) == text, "scenario round trip is not bit-exact");

  // Binary round trip: save→load→save must reproduce the exact bytes, and
  // a scenario that crossed text↔binary must keep its fingerprint (the
  // identity the regression suite pins).
  const std::string binary = to_binary(scenario);
  Scenario bin_loaded = scenario;
  try {
    bin_loaded = io::load_scenario(std::string_view(binary));
  } catch (const ContractError& e) {
    throw FuzzFailure(std::string("saved binary scenario failed to load: ") +
                      e.what());
  }
  require(to_binary(bin_loaded) == binary,
          "binary scenario round trip is not byte-exact");
  require(bin_loaded.fingerprint() == loaded.fingerprint(),
          "text/binary scenario fingerprints diverge");

  const CoverageModel coverage(scenario);
  const std::vector<Deployment> deployments =
      decode_deployments(r, scenario, 4);
  const AssignmentResult assignment =
      solve_assignment(scenario, coverage, deployments);
  Solution solution;
  solution.algorithm = "fuzz";
  solution.deployments = deployments;
  solution.user_to_deployment = assignment.user_to_deployment;
  solution.served = assignment.served;
  solution.solve_seconds = r.take_double(0.0, 100.0);
  const std::string sol_text = to_text(solution);
  const Solution sol_loaded =
      io::load_solution(std::string_view(sol_text), scenario.user_count());
  require(to_text(sol_loaded) == sol_text,
          "solution round trip is not bit-exact");
  require(sol_loaded.served == solution.served &&
              sol_loaded.deployments == solution.deployments &&
              sol_loaded.user_to_deployment == solution.user_to_deployment,
          "loaded solution differs from the saved one");
  const std::string sol_binary = to_binary(solution);
  const Solution sol_bin_loaded =
      io::load_solution(std::string_view(sol_binary), scenario.user_count());
  require(to_binary(sol_bin_loaded) == sol_binary,
          "binary solution round trip is not byte-exact");
  require(sol_bin_loaded.fingerprint() == sol_loaded.fingerprint(),
          "text/binary solution fingerprints diverge");

  // CSV quoting must invert through the parser for arbitrary cell bytes.
  const char palette[] = {'a', 'B', '7', ',', '"', '\n', '\r', ' '};
  std::vector<std::string> cells(
      static_cast<std::size_t>(r.take_int(1, 4)));
  for (std::string& cell : cells) {
    const std::int64_t len = r.take_int(0, 8);
    for (std::int64_t i = 0; i < len; ++i) cell.push_back(r.pick(palette));
  }
  std::string row;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) row += ',';
    row += CsvWriter::quote(cells[i]);
  }
  require(parse_csv_row(row) == cells, "CSV quote/parse not inverse");
}

void run_repair_harness(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  ScenarioLimits limits;
  limits.max_cols = 4;   // small instances keep the audited repair loop
  limits.max_rows = 4;   // and the full re-solve escalations fast
  limits.max_users = 14;
  limits.max_uavs = 5;
  limits.max_capacity = 8;
  const Scenario scenario = decode_scenario(r, limits);
  const CoverageModel coverage(scenario);
  const std::int32_t K = scenario.uav_count();

  resilience::RepairPolicy policy;
  policy.local_repair_floor = r.take_double(0.05, 1.0);
  policy.escalate_on_gateway_loss = r.take_bool();
  policy.refine_rounds = static_cast<std::int32_t>(r.take_int(0, 2));
  policy.audit = true;  // deep-audit every emitted solution, mid-repair too
  policy.appro.s = static_cast<std::int32_t>(
      r.take_int(1, std::min<std::int64_t>(2, K)));
  policy.appro.max_seed_subsets = 50;
  policy.appro.audit = true;
  if (r.take_bool()) {
    // Sometimes bind the repair latency: the result may differ run to run
    // (wall clock), but must always stay feasible — that is the contract.
    policy.appro.time_budget_s = r.take_double(1e-4, 0.05);
  }

  resilience::RepairController controller(scenario, policy);
  const Solution initial = controller.deploy();
  const std::int64_t ceiling = std::min<std::int64_t>(
      scenario.total_capacity(), scenario.user_count());

  resilience::FaultPlan plan;  // accumulated for the impact analyzer
  const auto n_events = r.take_int(0, 4);
  double now_s = 0.0;
  for (std::int64_t i = 0; i < n_events; ++i) {
    now_s += r.take_double(0.0, 50.0);
    resilience::FaultEvent event;
    event.time_s = now_s;
    event.kind = static_cast<resilience::FaultKind>(r.take_int(0, 3));
    if (event.kind == resilience::FaultKind::kLinkDegrade) {
      event.range_scale = r.take_double(0.3, 1.0);
    } else {
      // May target an already-dead UAV — the no-op path must hold too.
      event.uav = static_cast<UavId>(r.take_int(0, K - 1));
    }
    plan.events.push_back(event);

    const resilience::RepairOutcome outcome = controller.on_fault(event);
    const Solution& current = controller.current();
    require(current.served == outcome.served_after,
            "outcome served_after disagrees with the standing solution");
    require(current.served >= 0 && current.served <= ceiling,
            "repaired served count outside [0, capacity ceiling]");
    if (!current.deployments.empty()) {
      // Feasible for the *original* instance: degradation only removed
      // UAVs and shrank ranges, so this must hold for every repair.
      validate_solution(scenario, coverage, current);
      for (const Deployment& d : current.deployments) {
        require(d.uav.valid() && d.uav.value() < K,
                "repaired deployment references an unknown UAV");
      }
    } else {
      require(current.served == 0, "empty network claims served users");
    }
  }

  // The impact analyzer reports the do-nothing baseline for the same plan;
  // it must run clean on anything the controller accepted.
  const resilience::ImpactReport impact =
      resilience::analyze_impact(scenario, initial, plan);
  require(impact.events.size() == plan.events.size(),
          "impact analyzer dropped events");
  for (const resilience::EventImpact& e : impact.events) {
    require(e.served_remaining >= 0 && e.served_remaining <= ceiling,
            "impact served_remaining outside [0, ceiling]");
    require(e.users_stranded >= 0, "negative stranded-user count");
  }
}

void run_stream_harness(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  StreamCase c = decode_stream_case(r);
  try {
    c.scenario.validate();
    c.trace.validate(c.scenario.user_count());
  } catch (const ContractError&) {
    return;  // liveness-violating trace — clean rejection is correct.
  } catch (const std::invalid_argument&) {
    return;
  }

  stream::StreamPolicy policy;
  policy.served_floor = r.take_double(0.5, 1.0);
  policy.max_drift_fraction = r.take_double(0.1, 1.0);
  policy.appro.s = 2;
  policy.appro.max_seed_subsets = 50;
  policy.appro.threads = 1;
  policy.appro.audit = true;  // deep-audit every epoch, patched ones too.

  stream::StreamEngine engine(c.scenario, policy);
  stream::Ingest shadow(c.scenario);
  std::int64_t served_at_last_full = 0;
  for (const stream::Epoch& epoch : c.trace.epochs) {
    const stream::EpochResult res = engine.step(epoch);
    shadow.apply(epoch);
    const Scenario& materialized = shadow.scenario();
    require(res.scenario_fingerprint == materialized.fingerprint(),
            "stream: engine materialization diverged from the shadow "
            "ingest");
    require(engine.ingest().scenario().fingerprint() ==
                materialized.fingerprint(),
            "stream: engine ingest state diverged from the shadow ingest");

    const CoverageModel coverage(materialized);
    try {
      validate_solution(materialized, coverage, res.solution);
    } catch (const ContractError& err) {
      throw FuzzFailure(std::string("stream: standing solution infeasible "
                                    "for the materialized scenario: ") +
                        err.what());
    }
    if (materialized.user_count() == 0) {
      require(res.solution.served == 0,
              "stream: empty population claims served users");
      served_at_last_full = 0;
    } else if (res.full_solve) {
      const Solution fresh =
          stream::solve_snapshot(materialized, policy.appro);
      require(fresh.fingerprint() == res.solution.fingerprint() &&
                  fresh.served == res.solution.served,
              "stream: full-solve epoch differs from a from-scratch solve");
      served_at_last_full = res.solution.served;
    } else {
      require(res.served_at_last_full_solve == served_at_last_full,
              "stream: hysteresis reference served count drifted");
      require(!(static_cast<double>(res.solution.served) <
                policy.served_floor *
                    static_cast<double>(served_at_last_full)),
              "stream: kept patch below the hysteresis floor");
    }
  }
}

void run_service_harness(const std::uint8_t* data, std::size_t size) {
  ByteReader r(data, size);
  ScenarioLimits limits;
  limits.max_cols = 6;   // small instances keep the per-tile solves and
  limits.max_rows = 6;   // the deep stitched-solution audits fast
  limits.max_users = 16;
  limits.max_uavs = 6;
  limits.max_capacity = 8;
  const Scenario scenario = decode_scenario(r, limits);

  service::MissionConfig config;
  config.tiling.tiles_x = static_cast<std::int32_t>(
      r.take_int(1, std::min<std::int64_t>(3, scenario.grid.cols())));
  config.tiling.tiles_y = static_cast<std::int32_t>(
      r.take_int(1, std::min<std::int64_t>(3, scenario.grid.rows())));
  config.tiling.halo_cells = static_cast<std::int32_t>(r.take_int(0, 2));
  config.supervision.max_attempts =
      static_cast<std::int32_t>(r.take_int(1, 3));
  config.appro.s = static_cast<std::int32_t>(r.take_int(1, 2));
  config.appro.max_seed_subsets = 50;
  config.appro.threads = 1;
  config.threads = r.take_bool() ? 2 : 1;
  config.audit = true;  // deep §II-C + shard-partition audits every mission

  service::TilePlan plan;
  try {
    plan = service::make_tiling(scenario, config.tiling);
  } catch (const ContractError&) {
    return;  // untileable (e.g. fleet < populated tiles) — clean rejection.
  }

  service::ShardFaultConfig chaos_config;
  chaos_config.faults = static_cast<std::int32_t>(
      r.take_int(0, std::min<std::int64_t>(3, plan.tile_count())));
  chaos_config.max_poison_depth =
      static_cast<std::int32_t>(r.take_int(1, 5));
  chaos_config.include_unrecoverable = r.take_bool();
  const service::ShardFaultPlan chaos = service::make_shard_fault_plan(
      plan.tile_count(), chaos_config,
      static_cast<std::uint64_t>(r.take_int(0, 1 << 20)));

  const auto run = [&]() -> service::JobResult {
    try {
      return service::solve_mission(scenario, config, &chaos);
    } catch (const analysis::AuditError& e) {
      throw FuzzFailure(
          std::string("service: stitched mission failed the deep audits: ") +
          e.what());
    }
  };
  const service::JobResult result = run();

  const CoverageModel coverage(scenario);
  try {
    validate_solution(scenario, coverage, result.solution);
  } catch (const ContractError& e) {
    throw FuzzFailure(
        std::string("service: stitched solution infeasible for the parent "
                    "scenario: ") +
        e.what());
  }

  // Every injected shard failure recovered or named — never a clean
  // kSolved on a poisoned populated tile, never an unlisted loss.
  for (const service::ShardFault& fault : chaos.faults) {
    const service::TileStatus status =
        result.report.tiles[static_cast<std::size_t>(fault.tile.value())]
            .status;
    require(status != service::TileStatus::kSolved,
            "service: poisoned tile reported a clean first-try solve");
  }
  std::int64_t journaled = 0;
  for (const service::AttemptRecord& rec : result.attempts) {
    (void)rec;
    ++journaled;
  }
  require(journaled == result.stats.attempts,
          "service: attempt journal disagrees with the attempts counter");
  require(result.report.tiles.size() ==
              static_cast<std::size_t>(plan.tile_count()),
          "service: degradation report dropped tiles");

  // Bit-identical re-run: same scenario, config, and fault plan.
  const service::JobResult again = run();
  require(again.solution.fingerprint() == result.solution.fingerprint(),
          "service: mission re-run diverged");
  for (std::size_t t = 0; t < result.report.tiles.size(); ++t) {
    require(again.report.tiles[t].status == result.report.tiles[t].status,
            "service: tile status diverged across identical re-runs");
  }
}

std::span<const HarnessInfo> all_harnesses() {
  static constexpr std::array<HarnessInfo, 7> kHarnesses{{
      {"fuzz_assignment", &run_assignment_harness},
      {"fuzz_appro_alg", &run_appro_alg_harness},
      {"fuzz_segment_plan", &run_segment_plan_harness},
      {"fuzz_serialize_roundtrip", &run_serialize_roundtrip_harness},
      {"fuzz_repair", &run_repair_harness},
      {"fuzz_stream", &run_stream_harness},
      {"fuzz_service", &run_service_harness},
  }};
  return kHarnesses;
}

HarnessFn find_harness(const std::string& name) {
  for (const HarnessInfo& h : all_harnesses()) {
    if (name == h.name) return h.fn;
  }
  return nullptr;
}

}  // namespace uavcov::fuzz
