// Fixture: a format module that only calls the codec — using-declarations,
// calls, returns and locals that hold codec results are not definitions.
#include <cstdint>
#include <string>

#include "io/codec.hpp"

namespace {

using codec::put_u32;
using codec::slurp;

constexpr std::size_t kEventBytes = 40;

void save_event(std::uint8_t* rec) {
  put_u32(rec, 1);
  codec::put_u64(rec + 8, 2);
}

std::string load(std::istream& in) {
  const std::string data = slurp(in);
  if (data.empty()) return codec::slurp(in);
  return data;
}

}  // namespace
