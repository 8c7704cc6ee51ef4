// Fixture: the codec itself may define every shared helper.
#include <cstdint>
#include <string>

namespace uavcov::io::codec {

namespace {
constexpr std::size_t kHeaderBytes = 24;
constexpr std::size_t kEntryBytes = 32;
}  // namespace

void put_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::string slurp(std::istream& in) {
  std::string data;
  std::getline(in, data, '\0');
  return data;
}

}  // namespace uavcov::io::codec
