#include "io/serialize.hpp"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "io/binary.hpp"
#include "io/codec.hpp"

namespace uavcov::io {

namespace {

using codec::expect_end;
using codec::full_precision;
using codec::next_record;
using codec::open_checked;
using codec::parse_record;
using codec::read_arg;
using codec::Record;

void save_scenario_text(std::ostream& out, const Scenario& scenario) {
  full_precision(out);
  out << "uavcov-scenario v1\n";
  out << "# disaster area: width height cell_side (meters)\n";
  out << "area " << scenario.grid.width() << ' ' << scenario.grid.height()
      << ' ' << scenario.grid.cell_side() << '\n';
  out << "altitude " << scenario.altitude_m << '\n';
  out << "uav_range " << scenario.uav_range_m << '\n';
  out << "channel " << scenario.channel.carrier_hz << ' '
      << scenario.channel.environment.a << ' '
      << scenario.channel.environment.b << ' '
      << scenario.channel.environment.eta_los_db << ' '
      << scenario.channel.environment.eta_nlos_db << '\n';
  out << "receiver " << scenario.receiver.noise_dbm << ' '
      << scenario.receiver.bandwidth_hz << '\n';
  for (const User& u : scenario.users) {
    out << "user " << u.pos.x << ' ' << u.pos.y << ' ' << u.min_rate_bps
        << '\n';
  }
  for (const UavSpec& u : scenario.fleet) {
    out << "uav " << u.capacity << ' ' << u.radio.tx_power_dbm << ' '
        << u.radio.antenna_gain_dbi << ' ' << u.user_range_m << '\n';
  }
}

Scenario load_scenario_text(std::istream& in) {
  codec::expect_header(in, "scenario");
  double width = 0, height = 0, cell = 0;
  Scenario* scenario = nullptr;
  // The grid is immutable, so buffer records until `area` arrives (it is
  // written first, but we stay tolerant of reordering of later keys).
  std::string line;
  UAVCOV_CHECK_MSG(next_record(in, line), "missing 'area' record");
  {
    Record r = parse_record(line);
    UAVCOV_CHECK_MSG(r.key == "area", "first record must be 'area'");
    width = read_arg<double>(r, "width");
    height = read_arg<double>(r, "height");
    cell = read_arg<double>(r, "cell side");
    expect_end(r);
  }
  Scenario result{
      .grid = Grid(width, height, cell),
      .altitude_m = 300.0,
      .uav_range_m = 600.0,
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  scenario = &result;
  while (next_record(in, line)) {
    Record r = parse_record(line);
    if (r.key == "altitude") {
      scenario->altitude_m = read_arg<double>(r, "altitude");
    } else if (r.key == "uav_range") {
      scenario->uav_range_m = read_arg<double>(r, "range");
    } else if (r.key == "channel") {
      scenario->channel.carrier_hz = read_arg<double>(r, "carrier");
      scenario->channel.environment.a = read_arg<double>(r, "a");
      scenario->channel.environment.b = read_arg<double>(r, "b");
      scenario->channel.environment.eta_los_db = read_arg<double>(r, "eta");
      scenario->channel.environment.eta_nlos_db = read_arg<double>(r, "eta");
    } else if (r.key == "receiver") {
      scenario->receiver.noise_dbm = read_arg<double>(r, "noise");
      scenario->receiver.bandwidth_hz = read_arg<double>(r, "bandwidth");
    } else if (r.key == "user") {
      User u;
      u.pos.x = read_arg<double>(r, "x");
      u.pos.y = read_arg<double>(r, "y");
      u.min_rate_bps = read_arg<double>(r, "rate");
      scenario->users.push_back(u);
    } else if (r.key == "uav") {
      UavSpec u;
      u.capacity = read_arg<std::int32_t>(r, "capacity");
      u.radio.tx_power_dbm = read_arg<double>(r, "tx power");
      u.radio.antenna_gain_dbi = read_arg<double>(r, "gain");
      u.user_range_m = read_arg<double>(r, "user range");
      scenario->fleet.push_back(u);
    } else {
      UAVCOV_CHECK_MSG(false, "unknown scenario record: " + r.key);
    }
    expect_end(r);
  }
  result.validate();
  return result;
}

void save_solution_text(std::ostream& out, const Solution& solution) {
  full_precision(out);
  out << "uavcov-solution v1\n";
  out << "algorithm " << solution.algorithm << '\n';
  out << "served " << solution.served << '\n';
  out << "solve_seconds " << solution.solve_seconds << '\n';
  for (const Deployment& d : solution.deployments) {
    out << "deployment " << d.uav.value() << ' ' << d.loc.value() << '\n';
  }
  for (const UserId u : solution.user_to_deployment.ids()) {
    if (solution.user_to_deployment[u] != -1) {
      out << "assignment " << u.value() << ' '
          << solution.user_to_deployment[u] << '\n';
    }
  }
}

Solution load_solution_text(std::istream& in, std::int32_t user_count) {
  codec::expect_header(in, "solution");
  Solution solution;
  solution.user_to_deployment.assign(static_cast<std::size_t>(user_count),
                                     -1);
  std::string line;
  while (next_record(in, line)) {
    Record r = parse_record(line);
    if (r.key == "algorithm") {
      solution.algorithm = read_arg<std::string>(r, "name");
    } else if (r.key == "served") {
      solution.served = read_arg<std::int64_t>(r, "served");
      UAVCOV_CHECK_MSG(solution.served >= 0, "served must be nonnegative");
    } else if (r.key == "solve_seconds") {
      solution.solve_seconds = read_arg<double>(r, "seconds");
    } else if (r.key == "deployment") {
      Deployment d;
      d.uav = UavId{read_arg<std::int32_t>(r, "uav")};
      d.loc = LocationId{read_arg<std::int32_t>(r, "location")};
      UAVCOV_CHECK_MSG(d.uav.valid(),
                       "deployment UAV id must be nonnegative");
      UAVCOV_CHECK_MSG(d.loc.valid(),
                       "deployment location must be nonnegative");
      solution.deployments.push_back(d);
    } else if (r.key == "assignment") {
      const auto user = read_arg<std::int32_t>(r, "user");
      const auto dep = read_arg<std::int32_t>(r, "deployment");
      UAVCOV_CHECK_MSG(user >= 0 && user < user_count,
                       "assignment user out of range");
      UAVCOV_CHECK_MSG(dep >= 0, "assignment deployment must be nonnegative");
      UAVCOV_CHECK_MSG(solution.user_to_deployment[UserId{user}] == -1,
                       "duplicate assignment for user " +
                           std::to_string(user));
      solution.user_to_deployment[UserId{user}] = dep;
    } else {
      UAVCOV_CHECK_MSG(false, "unknown solution record: " + r.key);
    }
    expect_end(r);
  }
  // Deployment/assignment records may arrive in any order, so referential
  // integrity is a whole-file property: every assignment must point at a
  // deployment that actually exists (an out-of-range index previously
  // loaded "successfully" and blew up whoever consumed it).
  const auto deployment_count =
      static_cast<std::int32_t>(solution.deployments.size());
  for (const UserId u : solution.user_to_deployment.ids()) {
    const std::int32_t dep = solution.user_to_deployment[u];
    UAVCOV_CHECK_MSG(dep == -1 || dep < deployment_count,
                     "assignment for user " + std::to_string(u.value()) +
                         " references nonexistent deployment " +
                         std::to_string(dep));
  }
  return solution;
}

}  // namespace

void save_scenario(std::ostream& out, const Scenario& scenario,
                   Format format) {
  if (format == Format::kBinary) {
    save_scenario_binary(out, scenario);
    return;
  }
  save_scenario_text(out, scenario);
}

Scenario load_scenario(std::string_view bytes) {
  const std::string_view kind = codec::binary_kind(bytes);
  if (kind == "scenario") return load_scenario_binary(bytes);
  codec::reject_binary_kind(kind, "scenario", "load_scenario");
  std::istringstream in{std::string(bytes)};
  return load_scenario_text(in);
}

Scenario load_scenario(std::istream& in) {
  return load_scenario(std::string_view(codec::slurp(in)));
}

void save_solution(std::ostream& out, const Solution& solution,
                   Format format) {
  if (format == Format::kBinary) {
    save_solution_binary(out, solution);
    return;
  }
  save_solution_text(out, solution);
}

Solution load_solution(std::string_view bytes, std::int32_t user_count) {
  UAVCOV_CHECK_MSG(user_count >= 0, "user count must be nonnegative");
  const std::string_view kind = codec::binary_kind(bytes);
  if (kind == "solution") return load_solution_binary(bytes, user_count);
  codec::reject_binary_kind(kind, "solution", "load_solution");
  std::istringstream in{std::string(bytes)};
  return load_solution_text(in, user_count);
}

Solution load_solution(std::istream& in, std::int32_t user_count) {
  return load_solution(std::string_view(codec::slurp(in)), user_count);
}

void save_scenario_file(const std::string& path, const Scenario& scenario,
                        Format format) {
  std::ofstream out;
  open_checked(out, path);
  save_scenario(out, scenario, format);
}

Scenario load_scenario_file(const std::string& path) {
  std::ifstream in;
  open_checked(in, path);
  return load_scenario(in);
}

void save_solution_file(const std::string& path, const Solution& solution,
                        Format format) {
  std::ofstream out;
  open_checked(out, path);
  save_solution(out, solution, format);
}

Solution load_solution_file(const std::string& path,
                            std::int32_t user_count) {
  std::ifstream in;
  open_checked(in, path);
  return load_solution(in, user_count);
}

}  // namespace uavcov::io
