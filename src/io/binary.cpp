#include "io/binary.hpp"

#include <bit>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "io/codec.hpp"
#include "obs/metrics.hpp"

namespace uavcov::io {

namespace {

using codec::binary_metrics;
using codec::get_u32;
using codec::get_u64;
using codec::put_u32;
using codec::put_u64;
using codec::require_known_ids;
using codec::require_section;
using codec::Section;
using codec::SectionView;

// Scenario section ids.
constexpr std::uint32_t kSecGeometry = 1;   // width,height,cell,alt,range.
constexpr std::uint32_t kSecChannel = 2;    // carrier,a,b,eta_los,eta_nlos.
constexpr std::uint32_t kSecReceiver = 3;   // noise,bandwidth.
constexpr std::uint32_t kSecUserX = 4;
constexpr std::uint32_t kSecUserY = 5;
constexpr std::uint32_t kSecUserRate = 6;
constexpr std::uint32_t kSecUavCapacity = 7;
constexpr std::uint32_t kSecUavTx = 8;
constexpr std::uint32_t kSecUavGain = 9;
constexpr std::uint32_t kSecUavRange = 10;

// Solution section ids.
constexpr std::uint32_t kSecAlgorithm = 1;
constexpr std::uint32_t kSecMeta = 2;       // served i64, solve_seconds f64.
constexpr std::uint32_t kSecDeployUav = 3;
constexpr std::uint32_t kSecDeployLoc = 4;
constexpr std::uint32_t kSecAssignment = 5;

constexpr bool kHostLittleEndian = std::endian::native == std::endian::little;

/// A section holding `count` 4- or 8-byte values as little-endian bytes:
/// one memcpy on little-endian hosts, per-element encoding otherwise.
template <typename T>
Section column_section(std::uint32_t id, const T* data, std::size_t count) {
  static_assert(sizeof(T) == 4 || sizeof(T) == 8);
  Section s{id, std::vector<std::uint8_t>(count * sizeof(T))};
  if constexpr (kHostLittleEndian) {
    if (count > 0) std::memcpy(s.bytes.data(), data, count * sizeof(T));
  } else {
    for (std::size_t i = 0; i < count; ++i) {
      std::uint8_t* p = s.bytes.data() + i * sizeof(T);
      if constexpr (sizeof(T) == 8) {
        put_u64(p, std::bit_cast<std::uint64_t>(data[i]));
      } else {
        put_u32(p, std::bit_cast<std::uint32_t>(data[i]));
      }
    }
  }
  return s;
}

/// Decodes the required column_section `id` back into its values.
template <typename T>
std::vector<T> read_column(const std::vector<SectionView>& sections,
                           std::uint32_t id, const std::string& what,
                           const char* name) {
  const SectionView& s = require_section(sections, id, what, name);
  UAVCOV_CHECK_MSG(s.bytes.size() % sizeof(T) == 0,
                   "binary " + what + " section " + name +
                       ": size is not a multiple of " +
                       std::to_string(sizeof(T)));
  const std::size_t count = s.bytes.size() / sizeof(T);
  std::vector<T> out(count);
  if constexpr (kHostLittleEndian) {
    if (count > 0) std::memcpy(out.data(), s.bytes.data(), s.bytes.size());
  } else {
    const std::uint8_t* raw =
        reinterpret_cast<const std::uint8_t*>(s.bytes.data());
    for (std::size_t i = 0; i < count; ++i) {
      if constexpr (sizeof(T) == 8) {
        out[i] = std::bit_cast<T>(get_u64(raw + i * 8));
      } else {
        out[i] = std::bit_cast<T>(get_u32(raw + i * 4));
      }
    }
  }
  return out;
}

std::vector<double> read_fixed_doubles(
    const std::vector<SectionView>& sections, std::uint32_t id,
    std::size_t count, const std::string& what, const char* name) {
  std::vector<double> values = read_column<double>(sections, id, what, name);
  UAVCOV_CHECK_MSG(values.size() == count,
                   "binary " + what + " section " + name + ": expected " +
                       std::to_string(count * sizeof(double)) +
                       " bytes, got " +
                       std::to_string(values.size() * sizeof(double)));
  return values;
}

}  // namespace

void save_scenario_binary(std::ostream& out, const Scenario& scenario) {
  const std::size_t n = scenario.users.size();
  const std::size_t K = scenario.fleet.size();
  std::vector<Section> sections;
  sections.reserve(10);

  const double geometry[] = {scenario.grid.width(), scenario.grid.height(),
                             scenario.grid.cell_side(), scenario.altitude_m,
                             scenario.uav_range_m};
  sections.push_back(column_section(kSecGeometry, geometry, 5));
  const double channel[] = {scenario.channel.carrier_hz,
                            scenario.channel.environment.a,
                            scenario.channel.environment.b,
                            scenario.channel.environment.eta_los_db,
                            scenario.channel.environment.eta_nlos_db};
  sections.push_back(column_section(kSecChannel, channel, 5));
  const double receiver[] = {scenario.receiver.noise_dbm,
                             scenario.receiver.bandwidth_hz};
  sections.push_back(column_section(kSecReceiver, receiver, 2));

  // User columns (SoA on disk, mirroring FlatScenario's layout in memory).
  std::vector<double> column(n);
  for (std::size_t i = 0; i < n; ++i) column[i] = scenario.users.raw()[i].pos.x;
  sections.push_back(column_section(kSecUserX, column.data(), n));
  for (std::size_t i = 0; i < n; ++i) column[i] = scenario.users.raw()[i].pos.y;
  sections.push_back(column_section(kSecUserY, column.data(), n));
  for (std::size_t i = 0; i < n; ++i) {
    column[i] = scenario.users.raw()[i].min_rate_bps;
  }
  sections.push_back(column_section(kSecUserRate, column.data(), n));

  std::vector<std::int32_t> capacity(K);
  std::vector<double> tx(K);
  std::vector<double> gain(K);
  std::vector<double> range(K);
  for (std::size_t k = 0; k < K; ++k) {
    const UavSpec& u = scenario.fleet.raw()[k];
    capacity[k] = u.capacity;
    tx[k] = u.radio.tx_power_dbm;
    gain[k] = u.radio.antenna_gain_dbi;
    range[k] = u.user_range_m;
  }
  sections.push_back(column_section(kSecUavCapacity, capacity.data(), K));
  sections.push_back(column_section(kSecUavTx, tx.data(), K));
  sections.push_back(column_section(kSecUavGain, gain.data(), K));
  sections.push_back(column_section(kSecUavRange, range.data(), K));

  codec::write_document(out, kBinaryScenarioMagic, sections);
}

Scenario load_scenario_binary(std::string_view bytes) {
  const obs::ScopedTimer timer(binary_metrics().load_seconds);
  const std::string what = "scenario";
  const std::vector<SectionView> sections =
      codec::parse_document(bytes, what);
  require_known_ids(sections, kSecUavRange, what);

  const auto geometry =
      read_fixed_doubles(sections, kSecGeometry, 5, what, "geometry");
  const auto channel =
      read_fixed_doubles(sections, kSecChannel, 5, what, "channel");
  const auto receiver =
      read_fixed_doubles(sections, kSecReceiver, 2, what, "receiver");
  const auto user_x = read_column<double>(sections, kSecUserX, what, "user_x");
  const auto user_y = read_column<double>(sections, kSecUserY, what, "user_y");
  const auto user_rate =
      read_column<double>(sections, kSecUserRate, what, "user_rate");
  const auto capacity =
      read_column<std::int32_t>(sections, kSecUavCapacity, what,
                                "uav_capacity");
  const auto tx = read_column<double>(sections, kSecUavTx, what, "uav_tx");
  const auto gain =
      read_column<double>(sections, kSecUavGain, what, "uav_gain");
  const auto range =
      read_column<double>(sections, kSecUavRange, what, "uav_range");

  UAVCOV_CHECK_MSG(
      user_x.size() == user_y.size() && user_x.size() == user_rate.size(),
      "binary scenario: user column lengths differ");
  UAVCOV_CHECK_MSG(capacity.size() == tx.size() &&
                       capacity.size() == gain.size() &&
                       capacity.size() == range.size(),
                   "binary scenario: UAV column lengths differ");

  Scenario result{
      .grid = Grid(geometry[0], geometry[1], geometry[2]),
      .altitude_m = geometry[3],
      .uav_range_m = geometry[4],
      .channel = {},
      .receiver = {},
      .users = {},
      .fleet = {},
  };
  result.channel.carrier_hz = channel[0];
  result.channel.environment.a = channel[1];
  result.channel.environment.b = channel[2];
  result.channel.environment.eta_los_db = channel[3];
  result.channel.environment.eta_nlos_db = channel[4];
  result.receiver.noise_dbm = receiver[0];
  result.receiver.bandwidth_hz = receiver[1];
  result.users.reserve(user_x.size());
  for (std::size_t i = 0; i < user_x.size(); ++i) {
    result.users.push_back({{user_x[i], user_y[i]}, user_rate[i]});
  }
  result.fleet.reserve(capacity.size());
  for (std::size_t k = 0; k < capacity.size(); ++k) {
    result.fleet.push_back({capacity[k], {tx[k], gain[k]}, range[k]});
  }
  result.validate();
  binary_metrics().loads.inc();
  binary_metrics().bytes_read.inc(static_cast<std::int64_t>(bytes.size()));
  return result;
}

Scenario load_scenario_binary(std::istream& in) {
  return load_scenario_binary(std::string_view(codec::slurp(in)));
}

void save_solution_binary(std::ostream& out, const Solution& solution) {
  std::vector<Section> sections;
  sections.reserve(5);

  Section algorithm{kSecAlgorithm, {}};
  algorithm.bytes.assign(solution.algorithm.begin(), solution.algorithm.end());
  sections.push_back(std::move(algorithm));

  Section meta{kSecMeta, std::vector<std::uint8_t>(16)};
  put_u64(meta.bytes.data(), static_cast<std::uint64_t>(solution.served));
  put_u64(meta.bytes.data() + 8,
          std::bit_cast<std::uint64_t>(solution.solve_seconds));
  sections.push_back(std::move(meta));

  const std::size_t deployment_count = solution.deployments.size();
  std::vector<std::int32_t> uav(deployment_count);
  std::vector<std::int32_t> loc(deployment_count);
  for (std::size_t d = 0; d < deployment_count; ++d) {
    uav[d] = solution.deployments[d].uav.value();
    loc[d] = solution.deployments[d].loc.value();
  }
  sections.push_back(
      column_section(kSecDeployUav, uav.data(), deployment_count));
  sections.push_back(
      column_section(kSecDeployLoc, loc.data(), deployment_count));
  sections.push_back(column_section(kSecAssignment,
                                    solution.user_to_deployment.data(),
                                    solution.user_to_deployment.size()));

  codec::write_document(out, kBinarySolutionMagic, sections);
}

Solution load_solution_binary(std::string_view bytes,
                              std::int32_t user_count) {
  UAVCOV_CHECK_MSG(user_count >= 0, "user count must be nonnegative");
  const obs::ScopedTimer timer(binary_metrics().load_seconds);
  const std::string what = "solution";
  const std::vector<SectionView> sections =
      codec::parse_document(bytes, what);
  require_known_ids(sections, kSecAssignment, what);

  const SectionView& algorithm =
      require_section(sections, kSecAlgorithm, what, "algorithm");
  const SectionView& meta = require_section(sections, kSecMeta, what, "meta");
  UAVCOV_CHECK_MSG(meta.bytes.size() == 16,
                   "binary solution section meta: expected 16 bytes, got " +
                       std::to_string(meta.bytes.size()));
  const auto uav =
      read_column<std::int32_t>(sections, kSecDeployUav, what, "deploy_uav");
  const auto loc =
      read_column<std::int32_t>(sections, kSecDeployLoc, what, "deploy_loc");
  const auto assignment =
      read_column<std::int32_t>(sections, kSecAssignment, what, "assignment");
  UAVCOV_CHECK_MSG(uav.size() == loc.size(),
                   "binary solution: deployment column lengths differ");
  UAVCOV_CHECK_MSG(
      assignment.size() == static_cast<std::size_t>(user_count),
      "binary solution: assignment column has " +
          std::to_string(assignment.size()) + " users, expected " +
          std::to_string(user_count));

  Solution solution;
  solution.algorithm.assign(algorithm.bytes.begin(), algorithm.bytes.end());
  const std::uint8_t* meta_raw =
      reinterpret_cast<const std::uint8_t*>(meta.bytes.data());
  solution.served = static_cast<std::int64_t>(get_u64(meta_raw));
  UAVCOV_CHECK_MSG(solution.served >= 0, "served must be nonnegative");
  solution.solve_seconds = std::bit_cast<double>(get_u64(meta_raw + 8));

  const auto deployment_count = static_cast<std::int32_t>(uav.size());
  solution.deployments.reserve(uav.size());
  for (std::size_t d = 0; d < uav.size(); ++d) {
    const Deployment dep{UavId{uav[d]}, LocationId{loc[d]}};
    UAVCOV_CHECK_MSG(dep.uav.valid(),
                     "deployment UAV id must be nonnegative");
    UAVCOV_CHECK_MSG(dep.loc.valid(),
                     "deployment location must be nonnegative");
    solution.deployments.push_back(dep);
  }
  solution.user_to_deployment = assignment;
  for (const UserId u : solution.user_to_deployment.ids()) {
    const std::int32_t dep = solution.user_to_deployment[u];
    UAVCOV_CHECK_MSG(dep >= -1 && dep < deployment_count,
                     "assignment for user " + std::to_string(u.value()) +
                         " references nonexistent deployment " +
                         std::to_string(dep));
  }
  binary_metrics().loads.inc();
  binary_metrics().bytes_read.inc(static_cast<std::int64_t>(bytes.size()));
  return solution;
}

Solution load_solution_binary(std::istream& in, std::int32_t user_count) {
  return load_solution_binary(std::string_view(codec::slurp(in)), user_count);
}

}  // namespace uavcov::io
