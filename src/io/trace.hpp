// Churn-trace persistence (docs/STREAMING.md): the same one-API-two-formats
// scheme as io/serialize.hpp.
//
// *Text* — versioned line-oriented records, full precision, diffable:
//
//   uavcov-trace v1
//   epochs <E>
//   epoch <index> <event_count>          (E blocks, in order)
//   arrive <uid> <x> <y> <min_rate>
//   depart <uid>
//   move <uid> <x> <y>
//
// *Binary* — a document of the io codec's checksummed section container
// (io/codec.hpp, shared with the binary scenario and solution formats) under
// the magic "UAVCTRC1" (kBinaryTraceMagic, io/binary.hpp): section 1 holds
// the epoch count E and E per-epoch event counts (u64 each), section 2 the
// fixed-width 40-byte event records (kind, pad, uid, x, y, rate) in order.
//
// The loaders sniff the magic and take either format; both round-trip
// byte-exactly (save(load(save(x))) == save(x)).  Liveness discipline is
// NOT checked here — callers run ChurnTrace::validate() against their
// initial population.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>

#include "io/serialize.hpp"
#include "stream/churn.hpp"

namespace uavcov::io {

void save_trace(std::ostream& out, const stream::ChurnTrace& trace,
                Format format = Format::kText);
void save_trace_file(const std::string& path, const stream::ChurnTrace& trace,
                     Format format = Format::kText);

/// Parses a trace in either format (sniffed from the magic); throws
/// ContractError on malformed input: bad magic/version, unknown or
/// out-of-order records, counts that disagree with the declared totals,
/// negative uids, non-finite coordinates or rates, checksum mismatches.
stream::ChurnTrace load_trace(std::istream& in);
stream::ChurnTrace load_trace(std::string_view bytes);
stream::ChurnTrace load_trace_file(const std::string& path);

}  // namespace uavcov::io
