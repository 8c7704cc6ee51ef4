// Mission report: the full operational pipeline an emergency-response
// operator would run —
//   1. generate/solve the deployment (approAlg),
//   2. hook the network to the emergency communication vehicle (gateway
//      backhaul, paper Fig. 1),
//   3. audit quality: coverage, capacity utilization, load fairness,
//      single-point-of-failure UAVs,
//   4. sanity-check the service plane with the downlink simulator,
//   5. archive the plan: solution file + SVG rendering.
//
//   $ ./build/examples/mission_report [--out-dir /tmp]
#include <iostream>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/appro_alg.hpp"
#include "core/gateway.hpp"
#include "eval/metrics.hpp"
#include "io/serialize.hpp"
#include "netsim/service_sim.hpp"
#include "viz/render.hpp"
#include "workload/scenario_gen.hpp"

int main(int argc, char** argv) {
  using namespace uavcov;
  CliParser cli;
  cli.add_flag("users", "trapped users", "800");
  cli.add_flag("uavs", "fleet size", "12");
  cli.add_flag("out-dir", "directory for the SVG/solution artifacts",
               "/tmp");
  cli.add_flag("seed", "RNG seed", "31");
  if (!cli.parse(argc, argv)) return 0;
  const std::string out_dir = cli.get_string("out-dir");

  // 1. Scenario + deployment.
  Rng rng(static_cast<std::uint64_t>(cli.get_int("seed")));
  workload::ScenarioConfig config;
  config.user_count = static_cast<std::int32_t>(cli.get_int("users"));
  config.fleet.uav_count = static_cast<std::int32_t>(cli.get_int("uavs"));
  const Scenario scenario = workload::make_disaster_scenario(config, rng);
  const CoverageModel coverage(scenario);
  ApproAlgParams params;
  params.s = 2;
  params.candidate_cap = 30;
  // Keep unused UAVs grounded as spares — the gateway step below may need
  // them for the backhaul chain to the vehicle.
  params.fill_leftover_uavs = false;
  Solution solution = appro_alg(scenario, coverage, params);

  // 2. Backhaul: the emergency vehicle drives up the access road to the
  //    map edge closest to the deployed network and parks there.
  Vec2 vehicle{0.0, 0.0};
  double best_edge_dist = 1e18;
  for (const Deployment& d : solution.deployments) {
    const Vec2 c = scenario.grid.center(d.loc);
    const struct {
      Vec2 pos;
      double dist;
    } options[] = {{{0.0, c.y}, c.x},
                   {{scenario.grid.width(), c.y},
                    scenario.grid.width() - c.x},
                   {{c.x, 0.0}, c.y},
                   {{c.x, scenario.grid.height()},
                    scenario.grid.height() - c.y}};
    for (const auto& o : options) {
      if (o.dist < best_edge_dist) {
        best_edge_dist = o.dist;
        vehicle = o.pos;
      }
    }
  }
  const GatewayResult gateway =
      extend_to_gateway(scenario, coverage, solution, vehicle);
  validate_solution(scenario, coverage, solution);

  // 3. Quality audit.
  const auto metrics = eval::compute_metrics(scenario, coverage, solution);
  std::cout << "=== Mission report ===\n";
  Table audit;
  audit.set_header({"metric", "value"});
  audit.add_row({"served users", std::to_string(metrics.served) + " / " +
                                     std::to_string(scenario.user_count())});
  audit.add_row({"coverage",
                 format_double(100 * metrics.coverage_fraction, 1) + " %"});
  audit.add_row({"deployed UAVs", std::to_string(metrics.deployed_uavs) +
                                      " / " +
                                      std::to_string(scenario.uav_count())});
  audit.add_row(
      {"relay-only UAVs", std::to_string(metrics.relay_only_uavs)});
  audit.add_row({"capacity utilization",
                 format_double(100 * metrics.capacity_utilization, 1) +
                     " %"});
  audit.add_row(
      {"load fairness (Jain)", format_double(metrics.load_fairness, 3)});
  audit.add_row({"mean user rate",
                 format_double(metrics.mean_user_rate_bps / 1e6, 2) +
                     " Mb/s"});
  audit.add_row({"gateway", gateway.connected
                                ? "UAV " + std::to_string(
                                               solution.deployments
                                                   [static_cast<std::size_t>(
                                                        gateway
                                                            .gateway_deployment)]
                                                       .uav.value()) +
                                      " (+" +
                                      std::to_string(gateway.relays_added) +
                                      " relays)"
                                : "NOT CONNECTED"});
  std::string critical = "none";
  if (!metrics.critical_uavs.empty()) {
    critical.clear();
    for (UavId k : metrics.critical_uavs) {
      critical += (critical.empty() ? "" : ", ") + std::to_string(k.value());
    }
  }
  audit.add_row({"single points of failure", critical});
  audit.print(std::cout);

  // 4. Service plane sanity check.
  netsim::ServiceSimConfig sim;
  sim.duration_s = 5.0;
  const auto service = netsim::simulate_service(scenario, solution, sim);
  std::cout << "\nService simulation (" << sim.duration_s << " s):\n";
  std::cout << "  network throughput "
            << format_double(service.network_throughput_bps / 1e3, 1)
            << " kb/s, mean delay "
            << format_double(service.mean_delay_s * 1e3, 1)
            << " ms, p95 " << format_double(service.p95_delay_s * 1e3, 1)
            << " ms\n";

  // 5. Artifacts.
  const std::string svg_path = out_dir + "/mission_deployment.svg";
  const std::string sol_path = out_dir + "/mission_solution.txt";
  const std::string scen_path = out_dir + "/mission_scenario.txt";
  viz::render_deployment_file(svg_path, scenario, solution);
  io::save_solution_file(sol_path, solution);
  io::save_scenario_file(scen_path, scenario);
  std::cout << "\nArtifacts written:\n  " << svg_path << "\n  " << sol_path
            << "\n  " << scen_path << "\n";
  return 0;
}
