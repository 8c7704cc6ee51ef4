// The io codec: what every uavcov file format shares, written once.
//
// *Binary container* (layout in docs/FORMATS.md), behind all three magics —
// UAVCBIN1 scenario, UAVCSOL1 solution, UAVCTRC1 trace: a 24-byte header, a
// 32-byte-per-entry section table, then 8-byte-aligned payloads with FNV-1a
// checksums.  Format modules (io/binary.cpp, io/trace.cpp) only encode and
// decode their own sections.
//
// *Text records*: the `key value...` line reader of the three text formats.
//
// Internal to src/io; callers use io/serialize.hpp and io/trace.hpp.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "obs/metrics.hpp"

namespace uavcov::io::codec {

void put_u32(std::uint8_t* p, std::uint32_t v);
void put_u64(std::uint8_t* p, std::uint64_t v);
std::uint32_t get_u32(const std::uint8_t* p);
std::uint64_t get_u64(const std::uint8_t* p);

/// Counters for every binary document kind (docs/OBSERVABILITY.md); they
/// carry only call and byte counts, so the bench identity gate compares
/// them exactly.
struct BinaryIoMetrics {
  obs::Counter loads = obs::counter("io.binary.loads");
  obs::Counter saves = obs::counter("io.binary.saves");
  obs::Counter bytes_read = obs::counter("io.binary.bytes_read");
  obs::Counter bytes_written = obs::counter("io.binary.bytes_written");
  obs::Histogram load_seconds = obs::histogram("io.binary.load_seconds");
};
const BinaryIoMetrics& binary_metrics();

/// The kind ("scenario", "solution" or "trace") whose binary magic `bytes`
/// begin with; empty for any other input (text).
std::string_view binary_kind(std::string_view bytes);

/// When `found` (a binary_kind result) is not empty, throws ContractError
/// "<context>: input is a binary uavcov <found>, not a <what>" — the one
/// message every loader gives for a document of the wrong kind.
void reject_binary_kind(std::string_view found, std::string_view what,
                        const std::string& context);

struct Section {
  std::uint32_t id = 0;
  std::vector<std::uint8_t> bytes;
};

struct SectionView {
  std::uint32_t id = 0;
  std::string_view bytes;
};

/// Assembles the whole document in one buffer; one out.write.
void write_document(std::ostream& out, std::string_view magic,
                    const std::vector<Section>& sections);

/// Validates a `what` document's header and section table — magic,
/// version, section count, declared size, then per entry duplicate ids,
/// alignment, bounds and checksum — and returns the payload views.
std::vector<SectionView> parse_document(std::string_view data,
                                        std::string_view what);

const SectionView& require_section(const std::vector<SectionView>& sections,
                                   std::uint32_t id, const std::string& what,
                                   const char* name);

/// Rejects section ids outside [1, max_id].
void require_known_ids(const std::vector<SectionView>& sections,
                       std::uint32_t max_id, const std::string& what);

/// Files open in binary mode for every format: the loaders sniff bytes,
/// and on POSIX text output is byte-identical either way.
void open_checked(std::ifstream& in, const std::string& path);
void open_checked(std::ofstream& out, const std::string& path);

/// The single read every loader works from.
std::string slurp(std::istream& in);

/// Reads the `uavcov-<kind> v1` line that opens every text format; binary
/// bytes there (behind blank or comment lines) are named, not quoted.
void expect_header(std::istream& in, std::string_view kind);

/// Reads the next non-comment, non-empty line; returns false at EOF.
bool next_record(std::istream& in, std::string& line);

struct Record {
  std::string key;
  std::istringstream args;
};

Record parse_record(const std::string& line);

template <typename T>
T read_arg(Record& r, const char* what) {
  T value;
  r.args >> value;
  UAVCOV_CHECK_MSG(!r.args.fail(),
                   std::string("malformed ") + what + " in record '" +
                       r.key + "'");
  return value;
}

/// Rejects trailing tokens after a record's declared arguments — the
/// alternative is silently dropping user data ("user 1 2 3 4" would load
/// as a 3-field user), which the round-trip fuzzer rightly flags.
void expect_end(Record& r);

/// max_digits10, so every double written round-trips bit-exactly.
std::ostream& full_precision(std::ostream& out);

}  // namespace uavcov::io::codec
