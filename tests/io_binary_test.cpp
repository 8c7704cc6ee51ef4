// Binary scenario/solution format (io/binary.hpp) and the format-agnostic
// io entry points (io/serialize.hpp): round-trip bit-exactness on the six
// pinned regression instances, corruption rejection (header, table,
// checksums), and magic sniffing / cross-format error messages.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "io/binary.hpp"
#include "io/codec.hpp"
#include "io/serialize.hpp"
#include "io/trace.hpp"
#include "stream/churn.hpp"
#include "workload/builder.hpp"

namespace uavcov {
namespace {

/// The six (seed, users, uavs) instances the golden regression suite pins.
struct Pinned {
  std::uint64_t seed;
  std::int32_t users;
  std::int32_t uavs;
};
const std::vector<Pinned>& pinned_instances() {
  static const std::vector<Pinned> kPinned = {
      {12345, 400, 8}, {777, 250, 6},  {2024, 300, 8},
      {31337, 350, 10}, {555, 450, 7}, {9090, 500, 9},
  };
  return kPinned;
}

Scenario make_pinned(const Pinned& p) {
  return workload::ScenarioBuilder()
      .users(p.users)
      .uavs(p.uavs)
      .seed(p.seed)
      .build();
}

std::string scenario_bytes(const Scenario& scenario, io::Format format) {
  std::ostringstream out;
  io::save_scenario(out, scenario, format);
  return out.str();
}

std::string solution_bytes(const Solution& solution, io::Format format) {
  std::ostringstream out;
  io::save_solution(out, solution, format);
  return out.str();
}

/// Expects `fn` to throw a ContractError whose message contains `needle`.
template <typename Fn>
void expect_contract_error(Fn fn, const std::string& needle) {
  try {
    fn();
    FAIL() << "expected ContractError containing '" << needle << "'";
  } catch (const ContractError& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "error was: " << e.what();
  }
}

TEST(IoBinary, PinnedScenariosRoundTripBitExact) {
  for (const Pinned& p : pinned_instances()) {
    const Scenario scenario = make_pinned(p);
    const std::uint64_t fp = scenario.fingerprint();

    // binary → load → fingerprint preserved, re-save byte-identical.
    const std::string binary = scenario_bytes(scenario, io::Format::kBinary);
    ASSERT_EQ(io::codec::binary_kind(binary), "scenario");
    const Scenario from_binary = io::load_scenario(std::string_view(binary));
    EXPECT_EQ(from_binary.fingerprint(), fp) << "seed " << p.seed;
    EXPECT_EQ(scenario_bytes(from_binary, io::Format::kBinary), binary)
        << "seed " << p.seed;

    // text → binary → text crossing: same fingerprint, same text bytes.
    const std::string text = scenario_bytes(scenario, io::Format::kText);
    const Scenario from_text = io::load_scenario(std::string_view(text));
    EXPECT_EQ(from_text.fingerprint(), fp);
    EXPECT_EQ(scenario_bytes(from_binary, io::Format::kText), text)
        << "seed " << p.seed;
  }
}

TEST(IoBinary, SolutionRoundTripsInBothFormats) {
  Solution solution;
  solution.algorithm = "approAlg";
  solution.deployments = {{UavId{2}, LocationId{7}},
                          {UavId{0}, LocationId{3}}};
  solution.user_to_deployment = std::vector<std::int32_t>{0, -1, 1, 1, -1};
  solution.served = 3;
  solution.solve_seconds = 0.125;

  const std::string binary = solution_bytes(solution, io::Format::kBinary);
  ASSERT_EQ(io::codec::binary_kind(binary), "solution");
  const Solution loaded =
      io::load_solution(std::string_view(binary), /*user_count=*/5);
  EXPECT_EQ(loaded.algorithm, solution.algorithm);
  EXPECT_EQ(loaded.deployments, solution.deployments);
  EXPECT_EQ(loaded.user_to_deployment, solution.user_to_deployment);
  EXPECT_EQ(loaded.served, solution.served);
  EXPECT_EQ(loaded.solve_seconds, solution.solve_seconds);
  EXPECT_EQ(loaded.fingerprint(), solution.fingerprint());
  EXPECT_EQ(solution_bytes(loaded, io::Format::kBinary), binary);

  const std::string text = solution_bytes(solution, io::Format::kText);
  const Solution from_text =
      io::load_solution(std::string_view(text), /*user_count=*/5);
  EXPECT_EQ(from_text.fingerprint(), loaded.fingerprint());
}

TEST(IoBinary, SolutionUserCountMismatchRejected) {
  Solution solution;
  solution.algorithm = "x";
  solution.deployments = {{UavId{0}, LocationId{0}}};
  solution.user_to_deployment = std::vector<std::int32_t>{0, 0};
  solution.served = 2;
  const std::string binary = solution_bytes(solution, io::Format::kBinary);
  expect_contract_error(
      [&] { (void)io::load_solution(std::string_view(binary), 3); },
      "assignment column has 2 users, expected 3");
}

TEST(IoBinary, CorruptHeaderRejected) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  const std::string good = scenario_bytes(scenario, io::Format::kBinary);

  // Truncated to a partial header: the message names the byte offset where
  // the input ended.
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(good.substr(0, 11)); },
      "truncated header at byte offset 11");

  // Unsupported schema version (byte 8 is the low byte of the u32).
  std::string version = good;
  version[8] = 2;
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(version)); },
      "unsupported format version 2");

  // Mangled magic: the binary loader names it, the agnostic loader falls
  // through to the text parser (which also rejects).
  std::string magic = good;
  magic[0] = 'X';
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(magic)); },
      "bad magic");
  EXPECT_THROW((void)io::load_scenario(std::string_view(magic)),
               ContractError);
}

TEST(IoBinary, TruncatedFileRejected) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  const std::string good = scenario_bytes(scenario, io::Format::kBinary);
  expect_contract_error(
      [&] {
        (void)io::load_scenario_binary(
            std::string_view(good).substr(0, good.size() - 1));
      },
      "truncated?");
  // The message points at the header's size field, not a generic failure.
  expect_contract_error(
      [&] {
        (void)io::load_scenario_binary(
            std::string_view(good).substr(0, good.size() - 1));
      },
      "size field at byte offset 16");
}

TEST(IoBinary, BadChecksumRejected) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  std::string bytes = scenario_bytes(scenario, io::Format::kBinary);
  // The last byte of the file is payload of the final section; flipping it
  // breaks that section's FNV-1a checksum without touching the table.
  bytes[bytes.size() - 1] = static_cast<char>(bytes[bytes.size() - 1] ^ 0x1);
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(bytes)); },
      "checksum mismatch");
}

TEST(IoBinary, BadSectionTableRejected) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  const std::string good = scenario_bytes(scenario, io::Format::kBinary);
  constexpr std::size_t kEntry0 = 24;     // first table entry.
  constexpr std::size_t kEntryBytes = 32;  // one table entry.

  // Out-of-bounds payload offset (u64 at entry+8).  The error names the
  // byte offset of the offending table entry so a corrupt file can be
  // inspected with a hex dump.
  std::string bounds = good;
  bounds[kEntry0 + 8 + 6] = static_cast<char>(0x7f);  // offset ~= 2^54
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(bounds)); },
      "payload out of bounds");
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(bounds)); },
      "table entry at byte offset 24");

  // Oversized section length (u64 at entry+16): also out of bounds, also
  // pinned to the entry's byte offset.
  std::string oversized = good;
  oversized[kEntry0 + kEntryBytes + 16 + 6] = static_cast<char>(0x7f);
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(oversized)); },
      "payload out of bounds");
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(oversized)); },
      "table entry at byte offset 56");

  // Unaligned payload offset.
  std::string unaligned = good;
  unaligned[kEntry0 + 8] = static_cast<char>(unaligned[kEntry0 + 8] + 1);
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(unaligned)); },
      "unaligned offset");

  // Duplicate section id: make entry 1's id equal entry 0's (id 1).
  std::string duplicate = good;
  duplicate[kEntry0 + 32] = 1;
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(duplicate)); },
      "duplicate id");

  // Unknown section id.
  std::string unknown = good;
  unknown[kEntry0] = 99;
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(unknown)); },
      "unknown section id 99");
}

TEST(IoBinary, CrossFormatMagicIsNamedInErrors) {
  const Scenario scenario = make_pinned(pinned_instances().front());
  const std::string scenario_bin =
      scenario_bytes(scenario, io::Format::kBinary);
  Solution solution;
  solution.algorithm = "x";
  solution.user_to_deployment = std::vector<std::int32_t>{-1};
  const std::string solution_bin =
      solution_bytes(solution, io::Format::kBinary);

  // Agnostic loaders: the *other* binary kind is detected and named.
  expect_contract_error(
      [&] { (void)io::load_scenario(std::string_view(solution_bin)); },
      "binary uavcov solution");
  expect_contract_error(
      [&] { (void)io::load_solution(std::string_view(scenario_bin), 1); },
      "binary uavcov scenario");

  // Binary loaders called directly on the wrong kind.
  expect_contract_error(
      [&] { (void)io::load_scenario_binary(std::string_view(solution_bin)); },
      "is a binary uavcov solution, not a scenario");
  expect_contract_error(
      [&] {
        (void)io::load_solution_binary(std::string_view(scenario_bin), 1);
      },
      "is a binary uavcov scenario, not a solution");

  // Binary traces share the magic table: named by every other loader, and
  // the trace loader names the documents it is handed by mistake.
  stream::ChurnTrace trace;
  trace.epochs.resize(1);
  std::ostringstream trace_out;
  io::save_trace(trace_out, trace, io::Format::kBinary);
  const std::string trace_bin = trace_out.str();
  expect_contract_error(
      [&] { (void)io::load_scenario(std::string_view(trace_bin)); },
      "input is a binary uavcov trace, not a scenario");
  expect_contract_error(
      [&] { (void)io::load_solution(std::string_view(trace_bin), 1); },
      "input is a binary uavcov trace, not a solution");
  expect_contract_error(
      [&] { (void)io::load_trace(std::string_view(scenario_bin)); },
      "input is a binary uavcov scenario, not a trace");

  // Behind a blank line the magic is not sniffed; the text parser names it.
  expect_contract_error(
      [&] { (void)io::load_scenario(std::string_view("\n" + trace_bin)); },
      "input is a binary uavcov trace, not a text scenario");
}

TEST(IoBinary, TraceSectionErrorsNameByteOffsets) {
  stream::ChurnTrace trace;
  stream::Epoch epoch;
  epoch.events.push_back(
      {stream::ChurnKind::kArrive, 0, {10.0, 20.0}, 2e3});
  epoch.events.push_back({stream::ChurnKind::kMove, 0, {30.0, 40.0}, 0.0});
  trace.epochs.push_back(std::move(epoch));
  std::ostringstream out;
  io::save_trace(out, trace, io::Format::kBinary);
  const std::string good = out.str();
  ASSERT_EQ(good.substr(0, 8), io::kBinaryTraceMagic);

  // Sanity: the good bytes load back.
  EXPECT_EQ(io::load_trace(std::string_view(good)).fingerprint(),
            trace.fingerprint());

  // Truncated header: offset named.
  expect_contract_error(
      [&] { (void)io::load_trace(std::string_view(good).substr(0, 13)); },
      "truncated header at byte offset 13");

  // Truncated file: the header's size field is named.
  expect_contract_error(
      [&] {
        (void)io::load_trace(
            std::string_view(good).substr(0, good.size() - 1));
      },
      "size field at byte offset 16");

  // Oversized section length (u64 at entry+16 of the first table entry):
  // the error names the table entry's byte offset and the payload range.
  std::string oversized = good;
  oversized[24 + 16 + 6] = static_cast<char>(0x7f);
  expect_contract_error(
      [&] { (void)io::load_trace(std::string_view(oversized)); },
      "table entry at byte offset 24");
  expect_contract_error(
      [&] { (void)io::load_trace(std::string_view(oversized)); },
      "exceeds the file");
}

TEST(IoBinary, TraceCountOverflowRejected) {
  // A 104-byte UAVCTRC1 document with valid checksums whose epoch count,
  // 2^61 + 1, makes 8 + 8 * count wrap to 16 — the size of its count
  // section — and whose event section is empty.
  std::vector<io::codec::Section> sections(2);
  sections[0].id = 1;
  sections[0].bytes = std::vector<std::uint8_t>(16, 0);
  io::codec::put_u64(sections[0].bytes.data(), (std::uint64_t{1} << 61) + 1);
  sections[1].id = 2;
  std::ostringstream epochs_out;
  io::codec::write_document(epochs_out, io::kBinaryTraceMagic, sections);
  const std::string epochs_wrap = epochs_out.str();
  ASSERT_EQ(epochs_wrap.size(), 104u);
  expect_contract_error(
      [&] { (void)io::load_trace(std::string_view(epochs_wrap)); },
      "2305843009213693953 epoch counts it declares");

  // Two epochs of 2^63 events each: the event total wraps to 0, the size
  // of the empty event section.
  sections[0].bytes.assign(24, 0);
  io::codec::put_u64(sections[0].bytes.data(), 2);
  io::codec::put_u64(sections[0].bytes.data() + 8, std::uint64_t{1} << 63);
  io::codec::put_u64(sections[0].bytes.data() + 16, std::uint64_t{1} << 63);
  std::ostringstream events_out;
  io::codec::write_document(events_out, io::kBinaryTraceMagic, sections);
  expect_contract_error(
      [&] { (void)io::load_trace(std::string_view(events_out.str())); },
      "event counts through epoch 0 exceed");
}

TEST(IoBinary, FileEntryPointsSniffBothFormats) {
  const Scenario scenario = make_pinned(pinned_instances().back());
  const std::string dir = ::testing::TempDir();
  const std::string text_path = dir + "io_binary_test_scenario.txt";
  const std::string bin_path = dir + "io_binary_test_scenario.bin";
  io::save_scenario_file(text_path, scenario);  // text by default
  io::save_scenario_file(bin_path, scenario, io::Format::kBinary);
  EXPECT_EQ(io::load_scenario_file(text_path).fingerprint(),
            scenario.fingerprint());
  EXPECT_EQ(io::load_scenario_file(bin_path).fingerprint(),
            scenario.fingerprint());
}

TEST(IoBinary, StreamEntryPointsMatchStringViewOverloads) {
  const Scenario scenario = make_pinned(pinned_instances()[1]);
  const std::string binary = scenario_bytes(scenario, io::Format::kBinary);
  std::istringstream in(binary);
  EXPECT_EQ(io::load_scenario(in).fingerprint(), scenario.fingerprint());
  std::istringstream bin_in(binary);
  EXPECT_EQ(io::load_scenario_binary(bin_in).fingerprint(),
            scenario.fingerprint());
}

}  // namespace
}  // namespace uavcov
