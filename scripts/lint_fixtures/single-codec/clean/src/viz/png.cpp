// Fixture: an unrelated big-endian reader with a justified suppression.
#include <cstdint>

namespace {

// lint:allow single-codec -- PNG chunk lengths are big-endian, not the codec's little-endian layout
std::uint32_t get_u32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace
