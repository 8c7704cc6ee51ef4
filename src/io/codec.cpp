#include "io/codec.hpp"

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <istream>
#include <limits>
#include <ostream>
#include <set>

#include "common/fingerprint.hpp"
#include "io/binary.hpp"

namespace uavcov::io::codec {

namespace {

constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kHeaderBytes = 24;   // magic + version + count + size.
constexpr std::size_t kEntryBytes = 32;    // id + reserved + off + size + sum.
constexpr std::size_t kAlign = 8;
constexpr std::uint32_t kMaxSections = 4096;

struct KnownMagic {
  std::string_view magic;
  std::string_view kind;
};

/// Every binary magic a loader sniffs against.
constexpr KnownMagic kKnownMagics[] = {
    {kBinaryScenarioMagic, "scenario"},
    {kBinarySolutionMagic, "solution"},
    {kBinaryTraceMagic, "trace"},
};

std::uint64_t payload_checksum(std::string_view bytes) {
  Fnv1a h;
  for (const char c : bytes) h.mix_byte(static_cast<std::uint8_t>(c));
  return h.digest();
}

std::size_t align_up(std::size_t at) {
  return (at + kAlign - 1) / kAlign * kAlign;
}

}  // namespace

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

const BinaryIoMetrics& binary_metrics() {
  static const BinaryIoMetrics metrics;
  return metrics;
}

std::string_view binary_kind(std::string_view bytes) {
  for (const KnownMagic& known : kKnownMagics) {
    if (bytes.substr(0, kMagicBytes) == known.magic) return known.kind;
  }
  return {};
}

void reject_binary_kind(std::string_view found, std::string_view what,
                        const std::string& context) {
  // `found` is a binary_kind result: empty, or the kind of one entry.
  for (const KnownMagic& known : kKnownMagics) {
    UAVCOV_CHECK_MSG(known.kind != found,
                     context + ": input is a binary uavcov " +
                         std::string(found) + ", not a " + std::string(what) +
                         " (magic " + std::string(known.magic) + ")");
  }
}

void write_document(std::ostream& out, std::string_view magic,
                    const std::vector<Section>& sections) {
  std::size_t at = align_up(kHeaderBytes + sections.size() * kEntryBytes);
  std::vector<std::size_t> offsets;
  offsets.reserve(sections.size());
  for (const Section& s : sections) {
    offsets.push_back(at);
    at = align_up(at + s.bytes.size());
  }
  const std::size_t total =
      sections.empty()
          ? kHeaderBytes
          : offsets.back() + sections.back().bytes.size();
  std::vector<std::uint8_t> file(total, 0);
  std::memcpy(file.data(), magic.data(), kMagicBytes);
  put_u32(file.data() + 8, kBinaryFormatVersion);
  put_u32(file.data() + 12, static_cast<std::uint32_t>(sections.size()));
  put_u64(file.data() + 16, static_cast<std::uint64_t>(total));
  for (std::size_t i = 0; i < sections.size(); ++i) {
    std::uint8_t* entry = file.data() + kHeaderBytes + i * kEntryBytes;
    put_u32(entry, sections[i].id);
    put_u32(entry + 4, 0);  // reserved.
    put_u64(entry + 8, static_cast<std::uint64_t>(offsets[i]));
    put_u64(entry + 16, static_cast<std::uint64_t>(sections[i].bytes.size()));
    put_u64(entry + 24,
            payload_checksum({reinterpret_cast<const char*>(
                                  sections[i].bytes.data()),
                              sections[i].bytes.size()}));
    if (!sections[i].bytes.empty()) {
      std::memcpy(file.data() + offsets[i], sections[i].bytes.data(),
                  sections[i].bytes.size());
    }
  }
  out.write(reinterpret_cast<const char*>(file.data()),
            static_cast<std::streamsize>(file.size()));
  UAVCOV_CHECK_MSG(out.good(), "failed writing binary document");
  binary_metrics().saves.inc();
  binary_metrics().bytes_written.inc(static_cast<std::int64_t>(file.size()));
}

std::vector<SectionView> parse_document(std::string_view data,
                                        std::string_view what) {
  const std::string context = "binary " + std::string(what);
  UAVCOV_CHECK_MSG(data.size() >= kHeaderBytes,
                   context + ": truncated header at byte offset " +
                       std::to_string(data.size()) + " (need " +
                       std::to_string(kHeaderBytes) + " bytes)");
  const std::string_view kind = binary_kind(data);
  if (kind != what) {
    reject_binary_kind(kind, what, context);
    UAVCOV_CHECK_MSG(false, context + ": bad magic");
  }
  const std::uint8_t* raw =
      reinterpret_cast<const std::uint8_t*>(data.data());
  const std::uint32_t version = get_u32(raw + 8);
  UAVCOV_CHECK_MSG(version == kBinaryFormatVersion,
                   context + ": unsupported format version " +
                       std::to_string(version) + " (reader supports " +
                       std::to_string(kBinaryFormatVersion) + ")");
  const std::uint32_t count = get_u32(raw + 12);
  UAVCOV_CHECK_MSG(count <= kMaxSections,
                   context + ": unreasonable section count " +
                       std::to_string(count));
  const std::uint64_t declared_size = get_u64(raw + 16);
  UAVCOV_CHECK_MSG(declared_size == data.size(),
                   context + ": declared size " +
                       std::to_string(declared_size) +
                       " (size field at byte offset 16) != actual " +
                       std::to_string(data.size()) + " (truncated?)");
  const std::size_t table_end = kHeaderBytes + count * kEntryBytes;
  UAVCOV_CHECK_MSG(table_end <= data.size(),
                   context + ": section table ends at byte offset " +
                       std::to_string(table_end) + " but the file is " +
                       std::to_string(data.size()) + " bytes");

  std::vector<SectionView> sections;
  sections.reserve(count);
  std::set<std::uint32_t> seen;
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t entry_offset = kHeaderBytes + i * kEntryBytes;
    const std::uint8_t* entry = raw + entry_offset;
    SectionView s;
    s.id = get_u32(entry);
    const std::uint64_t offset = get_u64(entry + 8);
    const std::uint64_t size = get_u64(entry + 16);
    const std::uint64_t checksum = get_u64(entry + 24);
    const std::string where = context + " section " + std::to_string(s.id) +
                              " (table entry at byte offset " +
                              std::to_string(entry_offset) + ")";
    UAVCOV_CHECK_MSG(seen.insert(s.id).second, where + ": duplicate id");
    UAVCOV_CHECK_MSG(offset % kAlign == 0,
                     where + ": unaligned offset " + std::to_string(offset));
    UAVCOV_CHECK_MSG(offset >= table_end && size <= data.size() &&
                         offset <= data.size() - size,
                     where + ": payload out of bounds: the range [" +
                         std::to_string(offset) + ", " +
                         std::to_string(offset) + "+" + std::to_string(size) +
                         ") overlaps the section table (which ends at byte "
                         "offset " + std::to_string(table_end) +
                         ") or exceeds the file (" +
                         std::to_string(data.size()) + " bytes)");
    s.bytes = data.substr(static_cast<std::size_t>(offset),
                          static_cast<std::size_t>(size));
    UAVCOV_CHECK_MSG(payload_checksum(s.bytes) == checksum,
                     where + ": checksum mismatch (corrupt payload)");
    sections.push_back(s);
  }
  return sections;
}

const SectionView& require_section(const std::vector<SectionView>& sections,
                                   std::uint32_t id, const std::string& what,
                                   const char* name) {
  for (const SectionView& s : sections) {
    if (s.id == id) return s;
  }
  UAVCOV_CHECK_MSG(false, "binary " + what + ": missing required section " +
                              name);
  // Unreachable; UAVCOV_CHECK_MSG throws.
  std::abort();
}

void require_known_ids(const std::vector<SectionView>& sections,
                       std::uint32_t max_id, const std::string& what) {
  for (const SectionView& s : sections) {
    UAVCOV_CHECK_MSG(s.id >= 1 && s.id <= max_id,
                     "binary " + what + ": unknown section id " +
                         std::to_string(s.id));
  }
}

void open_checked(std::ifstream& in, const std::string& path) {
  in.open(path, std::ios::in | std::ios::binary);
  UAVCOV_CHECK_MSG(in.good(), "cannot open for reading: " + path);
}

void open_checked(std::ofstream& out, const std::string& path) {
  out.open(path, std::ios::out | std::ios::binary);
  UAVCOV_CHECK_MSG(out.good(), "cannot open for writing: " + path);
}

std::string slurp(std::istream& in) {
  std::string data;
  char buffer[1 << 16];
  while (in.read(buffer, sizeof(buffer)) || in.gcount() > 0) {
    data.append(buffer, static_cast<std::size_t>(in.gcount()));
  }
  return data;
}

bool next_record(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    if (line[first] == '#') continue;
    return true;
  }
  return false;
}

Record parse_record(const std::string& line) {
  Record r;
  r.args.str(line);
  r.args >> r.key;
  return r;
}

void expect_end(Record& r) {
  std::string extra;
  r.args >> extra;
  UAVCOV_CHECK_MSG(extra.empty(), "trailing data '" + extra +
                                      "' in record '" + r.key + "'");
}

void expect_header(std::istream& in, std::string_view kind) {
  const std::string magic = "uavcov-" + std::string(kind);
  std::string line;
  UAVCOV_CHECK_MSG(next_record(in, line), "empty input, expected " + magic);
  reject_binary_kind(binary_kind(line), "text " + std::string(kind),
                     "text parser");
  Record r = parse_record(line);
  const auto version = read_arg<std::string>(r, "version");
  UAVCOV_CHECK_MSG(r.key == magic && version == "v1",
                   "bad header: expected '" + magic + " v1', got '" + line +
                       "'");
  expect_end(r);
}

std::ostream& full_precision(std::ostream& out) {
  out << std::setprecision(std::numeric_limits<double>::max_digits10);
  return out;
}

}  // namespace uavcov::io::codec
