// Fixture: a format module carrying its own copy of the codec — every
// definition below must be flagged by the single-codec rule.
#include <cstdint>
#include <fstream>
#include <string>

namespace {

constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kEntryBytes = 32;

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t get_u64(const std::uint8_t* p);

static std::uint64_t payload_checksum(const std::uint8_t* data,
                                      std::size_t size) {
  return size == 0 ? 0 : data[0];
}

void open_checked(std::ifstream& in, const std::string& path) {
  in.open(path, std::ios::in | std::ios::binary);
}

std::string slurp(std::istream& in) {
  std::string data;
  std::getline(in, data, '\0');
  return data;
}

std::vector<SectionView> parse_document(std::string_view data,
                                        std::string_view what) {
  return {};
}

}  // namespace
