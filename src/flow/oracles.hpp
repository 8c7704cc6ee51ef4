// Brute-force flow references for tests: exhaustive maximum "assignment"
// on tiny bipartite instances, checked against Dinic.
#pragma once  // lint:allow unused-header -- test oracle

#include <cstdint>
#include <vector>

namespace uavcov::oracle {

/// Maximum number of left-side items assignable to right-side bins, where
/// `eligible[i]` lists the bins item i may use and `bin_capacity[b]` bounds
/// bin b.  Solved by exhaustive search (items <= ~12, bins small);
/// exponential — test-only.
std::int64_t brute_force_assignment(
    const std::vector<std::vector<std::int32_t>>& eligible,
    const std::vector<std::int64_t>& bin_capacity);

}  // namespace uavcov::oracle
