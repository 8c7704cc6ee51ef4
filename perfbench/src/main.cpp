// perfbench: the repository's benchmark binary (see perfbench/README.md).
//
//   perfbench --workload <plan_s3|field_ops|all> --seconds S
//             [--seed N] [--trace 0|1] [--work-dir DIR]
//
// perfbench/run.py passes --seconds from run_seconds in BENCHMARK.json.
//
// Prints every metric by name and unit, then one JSON result line as the
// last line of standard output.  Exit status is 0 only when every
// operation succeeded and every output check passed.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <string>

#include "helpers.hpp"
#include "workloads.hpp"

namespace {

void print_block(const std::string& title,
                 const std::vector<perfbench::Metric>& metrics) {
  for (const auto& m : metrics) {
    std::cout << "  " << title << " " << m.name << " = "
              << perfbench::format_number(m.value) << " " << m.unit << "\n";
  }
}

int usage() {
  std::cerr << "usage: perfbench --workload <plan_s3|field_ops|all> "
               "--seconds S [--seed N] [--trace 0|1] [--work-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return usage();
    args[key.substr(2)] = argv[i + 1];
  }
  if (argc % 2 != 1 || !args.count("workload") || !args.count("seconds")) {
    return usage();
  }
  const std::string workload = args["workload"];
  std::vector<std::string> names;
  if (workload == "all") {
    names = perfbench::workload_names();
  } else {
    names = {workload};
  }

  perfbench::RunOptions base;
  std::optional<std::uint64_t> seed;
  try {
    base.seconds = std::stod(args["seconds"]);
    base.trace = args.count("trace") && args["trace"] != "0";
    base.work_dir = args.count("work-dir") ? args["work-dir"] : ".";
    for (const auto& name : names) perfbench::default_seed(name);
    if (args.count("seed")) {
      if (workload == "all") {
        std::cerr << "--seed applies to one workload; 'all' uses the "
                     "defaults\n";
        return 2;
      }
      seed = std::stoull(args["seed"]);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return usage();
  }

  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<perfbench::Metric> reported;
  for (const auto& name : names) {
    perfbench::RunOptions opt = base;
    opt.seed = seed.value_or(perfbench::default_seed(name));
    perfbench::WorkloadResult r;
    try {
      r = perfbench::run_workload(name, opt);
    } catch (const std::exception& e) {
      r.attempted = 1;
      r.failed = 1;
      r.errors.push_back(e.what());
    }
    if (opt.trace && !r.chrome_trace.empty()) {
      const std::string path = opt.work_dir + "/perfbench-trace-" + name +
                               "-" + std::to_string(opt.seed) + ".json";
      ++r.attempted;
      std::ofstream out(path);
      out << r.chrome_trace;
      if (!out.good()) {
        r.errors.push_back("cannot write " + path);
        ++r.failed;
      } else {
        r.notes.push_back("chrome trace written to " + path);
      }
    }
    std::cout << "workload " << name << " seed " << opt.seed << " trace "
              << (opt.trace ? 1 : 0) << "\n";
    print_block("end_to_end", r.end_to_end);
    print_block("end_to_end", r.detail);
    std::cout << "  end_to_end fail_ratio = "
              << perfbench::format_number(
                     r.attempted > 0 ? static_cast<double>(r.failed) /
                                           static_cast<double>(r.attempted)
                                     : 1.0)
              << " ratio (" << r.failed << " of " << r.attempted << " ops)\n";
    print_block("per_layer", r.per_layer);
    print_block("self_time", r.self_times);
    for (const auto& note : r.notes) std::cout << "  note " << note << "\n";
    for (const auto& err : r.errors) std::cout << "  FAILED " << err << "\n";
    correct = correct && r.failed == 0 && r.errors.empty();
    attempted += r.attempted;
    failed += r.failed;
    const auto& chosen = opt.trace ? r.per_layer : r.end_to_end;
    for (const auto& m : chosen) {
      reported.push_back(
          {names.size() > 1 ? name + "." + m.name : m.name, m.value, m.unit});
    }
  }
  std::cout << perfbench::result_json(
                   correct, std::max<std::int64_t>(attempted, 1), failed,
                   reported)
            << std::endl;
  return correct ? EXIT_SUCCESS : EXIT_FAILURE;
}
