// Unit tests for perfbench's measurement helpers.  Self-contained (no test
// framework) so the benchmark package builds on its own:
//   cmake --build <dir> --target perfbench_helpers_test && <dir>/perfbench_helpers_test
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "helpers.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b, double tol = 1e-12) {
  return std::abs(a - b) <= tol;
}

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

void test_tail_percentile() {
  using perfbench::tail_percentile;
  // 200 samples: p99 leaves 2 beyond, p95 leaves exactly 10.
  auto t = tail_percentile(one_to(200));
  expect(t && t->percentile == 95.0 && t->value == 190.0 &&
             t->beyond == 10 && t->samples == 200,
         "200 samples -> p95 = 190 with 10 beyond");
  // 199 samples: p95 rank 190 leaves 9 -> fall back to p90 (rank 180).
  t = tail_percentile(one_to(199));
  expect(t && t->percentile == 90.0 && t->value == 180.0 && t->beyond == 19,
         "199 samples -> p90");
  // 1000 samples: p99 rank 990 leaves exactly 10.
  t = tail_percentile(one_to(1000));
  expect(t && t->percentile == 99.0 && t->value == 990.0,
         "1000 samples -> p99");
  // 10000 samples: p99.9 rank 9990 leaves 10.
  t = tail_percentile(one_to(10000));
  expect(t && t->percentile == 99.9 && t->value == 9990.0,
         "10000 samples -> p99.9");
  // 20 samples: only the median (rank 10, 10 beyond) qualifies.
  t = tail_percentile(one_to(20));
  expect(t && t->percentile == 50.0 && t->value == 10.0, "20 -> p50");
  expect(!tail_percentile(one_to(19)).has_value(), "19 samples -> none");
  expect(!tail_percentile({}).has_value(), "no samples -> none");
  // A custom threshold.
  t = tail_percentile(one_to(100), 1);
  expect(t && t->percentile == 99.0 && t->value == 99.0, "min_beyond 1");
}

void test_order_statistics() {
  expect(near(perfbench::median({3, 1, 2}), 2.0), "odd median");
  expect(near(perfbench::median({4, 1, 3, 2}), 2.5), "even median");
  expect(near(perfbench::percentile(one_to(100), 50.0), 50.0), "p50");
  expect(near(perfbench::percentile(one_to(100), 100.0), 100.0), "p100");
  bool threw = false;
  try {
    perfbench::median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of nothing throws");
}

void test_self_time() {
  perfbench::SpanRecorder rec(42, true);
  const auto pause = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  const int root = rec.begin("root");
  pause();
  const int a = rec.begin("a");
  pause();
  const int b = rec.begin("b");
  pause();
  rec.end(b);
  rec.attribute(a, "inner", 0.001);
  pause();
  rec.end(a);
  const int b2 = rec.begin("b");
  pause();
  rec.end(b2);
  rec.end(root);

  const auto& spans = rec.spans();
  expect(spans.size() == 4, "four spans recorded");
  expect(spans[1].parent == root && spans[2].parent == a &&
             spans[3].parent == root,
         "parents follow nesting");
  const auto dur = [&](int id) {
    return spans[static_cast<std::size_t>(id)].end_s -
           spans[static_cast<std::size_t>(id)].start_s;
  };
  const auto self = rec.self_times();
  expect(near(self.at("root"), dur(root) - dur(a) - dur(b2), 1e-9),
         "root self = duration - children");
  expect(near(self.at("a"), dur(a) - dur(b) - 0.001, 1e-9),
         "a self = duration - child - attributed");
  expect(near(self.at("b"), dur(b) + dur(b2), 1e-9),
         "leaf layer self time sums over its spans");
  expect(near(self.at("inner"), 0.001), "attributed time credited");
  double total = 0.0;
  for (const auto& [name, s] : self) total += s;
  expect(near(total, dur(root), 1e-9), "self times sum to the root");

  const std::string json = rec.chrome_trace_json();
  expect(json.find("\"ph\":\"X\"") != std::string::npos &&
             json.find("\"run_id\":\"42\"") != std::string::npos &&
             json.find("\"inner_s\"") != std::string::npos,
         "chrome trace carries events, run id and attributions");

  perfbench::SpanRecorder off(7, false);
  expect(off.begin("x") == -1, "disabled recorder keeps nothing");
  off.end(-1);
  expect(off.spans().empty() && off.self_times().empty(),
         "disabled recorder is empty");
}

void test_metric_names() {
  using perfbench::valid_metric_name;
  expect(valid_metric_name("plan_s"), "plain name");
  expect(valid_metric_name("assignment.probe_p99_us"), "dotted name");
  expect(valid_metric_name("a-b.c_d9"), "all allowed characters");
  expect(valid_metric_name("9lives"), "leading digit");
  expect(!valid_metric_name(""), "empty");
  expect(!valid_metric_name("_x"), "leading underscore");
  expect(!valid_metric_name(".x"), "leading dot");
  expect(!valid_metric_name("a b"), "space");
  expect(!valid_metric_name("a/b"), "slash");
  expect(!valid_metric_name("p99%"), "percent");
  expect(!valid_metric_name(std::string(65, 'a')), "too long");
  expect(valid_metric_name(std::string(64, 'a')), "64 characters");
  bool threw = false;
  try {
    perfbench::result_json(true, 1, 0, {{"bad name", 1.0, "s"}});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "result_json rejects a bad metric name");
  expect(perfbench::result_json(true, 3, 0, {{"x", 0.5, "s"}}) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"x\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result line format");
}

}  // namespace

int main() {
  test_tail_percentile();
  test_order_statistics();
  test_self_time();
  test_metric_names();
  if (failures > 0) {
    std::cerr << failures << " check(s) failed\n";
    return 1;
  }
  std::cout << "perfbench helpers: all checks passed\n";
  return 0;
}
