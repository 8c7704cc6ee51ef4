#include "viz/render.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>

#include "common/check.hpp"
#include "core/planner.hpp"

namespace uavcov::viz {

std::string render_deployment(const Scenario& scenario,
                              const Solution& solution,
                              const RenderOptions& options) {
  UAVCOV_CHECK_MSG(
      solution.user_to_deployment.empty() ||
          solution.user_to_deployment.size() == scenario.users.size(),
      "solution does not match scenario");
  SvgCanvas canvas(scenario.grid.width(), scenario.grid.height(),
                   options.pixels_per_meter);

  if (options.draw_grid) {
    const double side = scenario.grid.cell_side();
    for (std::int32_t c = 0; c <= scenario.grid.cols(); ++c) {
      canvas.line(c * side, 0, c * side, scenario.grid.height(), "#dddddd",
                  0.6);
    }
    for (std::int32_t r = 0; r <= scenario.grid.rows(); ++r) {
      canvas.line(0, r * side, scenario.grid.width(), r * side, "#dddddd",
                  0.6);
    }
  }

  // Coverage discs below everything else.
  if (options.draw_coverage_discs) {
    for (const Deployment& d : solution.deployments) {
      const Vec2 c = scenario.grid.center(d.loc);
      const double radius =
          scenario.fleet[d.uav].user_range_m;
      canvas.circle(c.x, c.y, radius, "#7ca5d8", 0.12);
    }
  }

  // UAV-to-UAV links.
  if (options.draw_links) {
    for (std::size_t i = 0; i < solution.deployments.size(); ++i) {
      const Vec2 a = scenario.grid.center(solution.deployments[i].loc);
      for (std::size_t j = i + 1; j < solution.deployments.size(); ++j) {
        if (planner::linked(scenario, solution.deployments[i].loc,
                            solution.deployments[j].loc)) {
          const Vec2 b = scenario.grid.center(solution.deployments[j].loc);
          canvas.line(a.x, a.y, b.x, b.y, "#40508a", 1.6, 0.8);
        }
      }
    }
  }

  // Users.
  for (const UserId u : scenario.user_ids()) {
    const Vec2 p = scenario.users[u].pos;
    const std::int32_t dep = solution.user_to_deployment.empty()
                                 ? -1
                                 : solution.user_to_deployment[u];
    canvas.circle(p.x, p.y, 8.0, dep >= 0 ? "#3f9b57" : "#c2504a", 0.85);
    if (options.draw_associations && dep >= 0) {
      const Vec2 c = scenario.grid.center(
          solution.deployments[static_cast<std::size_t>(dep)].loc);
      canvas.line(p.x, p.y, c.x, c.y, "#3f9b57", 0.5, 0.35, true);
    }
  }

  // UAVs: radius scales with capacity (sqrt so area ∝ capacity).
  std::int32_t cap_max = 1;
  for (const UavSpec& u : scenario.fleet) {
    cap_max = std::max(cap_max, u.capacity);
  }
  for (const Deployment& d : solution.deployments) {
    const Vec2 c = scenario.grid.center(d.loc);
    const double cap = scenario.fleet[d.uav].capacity;
    const double radius =
        25.0 + 45.0 * std::sqrt(cap / static_cast<double>(cap_max));
    canvas.circle(c.x, c.y, radius, "#2b3a6b", 0.95, "#ffffff", 1.5);
    if (options.draw_labels) {
      canvas.text(c.x, c.y, std::to_string(d.uav.value()), 11.0,
                  "#ffffff");
    }
  }
  return canvas.str();
}

void render_deployment_file(const std::string& path,
                            const Scenario& scenario,
                            const Solution& solution,
                            const RenderOptions& options) {
  std::ofstream out(path);
  UAVCOV_CHECK_MSG(out.good(), "cannot open SVG output: " + path);
  out << render_deployment(scenario, solution, options);
}

}  // namespace uavcov::viz
