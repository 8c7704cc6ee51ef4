#include "io/trace.hpp"

#include <bit>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <vector>

#include "common/check.hpp"
#include "io/binary.hpp"
#include "io/codec.hpp"
#include "obs/metrics.hpp"

namespace uavcov::io {

namespace {

using codec::expect_end;
using codec::get_u32;
using codec::get_u64;
using codec::next_record;
using codec::parse_record;
using codec::put_u32;
using codec::put_u64;
using codec::read_arg;
using codec::Record;
using stream::ChurnEvent;
using stream::ChurnKind;
using stream::ChurnTrace;
using stream::Epoch;

void check_event_fields(const ChurnEvent& ev, const char* where) {
  UAVCOV_CHECK_MSG(ev.uid >= 0, std::string(where) + ": negative uid");
  UAVCOV_CHECK_MSG(std::isfinite(ev.pos.x) && std::isfinite(ev.pos.y),
                   std::string(where) + ": non-finite position");
  UAVCOV_CHECK_MSG(std::isfinite(ev.min_rate_bps),
                   std::string(where) + ": non-finite rate");
}

// ---- text format --------------------------------------------------------

void save_trace_text(std::ostream& out, const ChurnTrace& trace) {
  codec::full_precision(out);
  out << "uavcov-trace v1\n";
  out << "epochs " << trace.epochs.size() << '\n';
  for (std::size_t e = 0; e < trace.epochs.size(); ++e) {
    const Epoch& epoch = trace.epochs[e];
    out << "epoch " << e << ' ' << epoch.events.size() << '\n';
    for (const ChurnEvent& ev : epoch.events) {
      switch (ev.kind) {
        case ChurnKind::kArrive:
          out << "arrive " << ev.uid << ' ' << ev.pos.x << ' ' << ev.pos.y
              << ' ' << ev.min_rate_bps << '\n';
          break;
        case ChurnKind::kDepart:
          out << "depart " << ev.uid << '\n';
          break;
        case ChurnKind::kMove:
          out << "move " << ev.uid << ' ' << ev.pos.x << ' ' << ev.pos.y
              << '\n';
          break;
      }
    }
  }
}

ChurnTrace load_trace_text(std::istream& in) {
  codec::expect_header(in, "trace");
  std::string line;
  ChurnTrace trace;
  UAVCOV_CHECK_MSG(next_record(in, line), "missing 'epochs' record");
  std::int64_t declared = 0;
  {
    Record r = parse_record(line);
    UAVCOV_CHECK_MSG(r.key == "epochs", "expected 'epochs', got '" + r.key +
                                            "'");
    declared = read_arg<std::int64_t>(r, "epoch count");
    UAVCOV_CHECK_MSG(declared >= 0, "epoch count must be nonnegative");
    expect_end(r);
  }
  // Declared counts are untrusted until their records arrive, so nothing
  // is reserved from them (a huge count would throw std::bad_alloc).
  for (std::int64_t e = 0; e < declared; ++e) {
    UAVCOV_CHECK_MSG(next_record(in, line),
                     "missing 'epoch' record " + std::to_string(e));
    Record r = parse_record(line);
    UAVCOV_CHECK_MSG(r.key == "epoch",
                     "expected 'epoch', got '" + r.key + "'");
    const auto index = read_arg<std::int64_t>(r, "epoch index");
    UAVCOV_CHECK_MSG(index == e, "epoch records out of order: expected " +
                                     std::to_string(e) + ", got " +
                                     std::to_string(index));
    const auto count = read_arg<std::int64_t>(r, "event count");
    UAVCOV_CHECK_MSG(count >= 0, "event count must be nonnegative");
    expect_end(r);

    Epoch epoch;
    for (std::int64_t i = 0; i < count; ++i) {
      UAVCOV_CHECK_MSG(next_record(in, line),
                       "truncated epoch " + std::to_string(e));
      Record ev_r = parse_record(line);
      ChurnEvent ev;
      if (ev_r.key == "arrive") {
        ev.kind = ChurnKind::kArrive;
        ev.uid = read_arg<std::int64_t>(ev_r, "uid");
        ev.pos.x = read_arg<double>(ev_r, "x");
        ev.pos.y = read_arg<double>(ev_r, "y");
        ev.min_rate_bps = read_arg<double>(ev_r, "rate");
      } else if (ev_r.key == "depart") {
        ev.kind = ChurnKind::kDepart;
        ev.uid = read_arg<std::int64_t>(ev_r, "uid");
        ev.pos = {};
        ev.min_rate_bps = 0.0;
      } else if (ev_r.key == "move") {
        ev.kind = ChurnKind::kMove;
        ev.uid = read_arg<std::int64_t>(ev_r, "uid");
        ev.pos.x = read_arg<double>(ev_r, "x");
        ev.pos.y = read_arg<double>(ev_r, "y");
        ev.min_rate_bps = 0.0;
      } else {
        UAVCOV_CHECK_MSG(false, "unknown trace record: " + ev_r.key);
      }
      expect_end(ev_r);
      check_event_fields(ev, "text trace");
      epoch.events.push_back(ev);
    }
    trace.epochs.push_back(std::move(epoch));
  }
  UAVCOV_CHECK_MSG(!next_record(in, line),
                   "trailing record after the declared epochs: " + line);
  return trace;
}

// ---- binary format ------------------------------------------------------
//
// A codec document (io/codec.hpp) with magic UAVCTRC1 and two sections.

constexpr std::uint32_t kSecEpochCounts = 1;  // u64 E, then E u64 counts.
constexpr std::uint32_t kSecEvents = 2;       // 40-byte records, in order.
constexpr std::size_t kEventBytes = 40;       // kind,pad,uid,x,y,rate.

void save_trace_binary(std::ostream& out, const ChurnTrace& trace) {
  std::size_t total_events = 0;
  for (const Epoch& epoch : trace.epochs) total_events += epoch.events.size();
  std::vector<codec::Section> sections(2);
  sections[0] = {kSecEpochCounts,
                 std::vector<std::uint8_t>(8 + 8 * trace.epochs.size())};
  sections[1] = {kSecEvents,
                 std::vector<std::uint8_t>(total_events * kEventBytes)};
  std::uint8_t* count = sections[0].bytes.data();
  put_u64(count, static_cast<std::uint64_t>(trace.epochs.size()));
  std::uint8_t* rec = sections[1].bytes.data();
  for (const Epoch& epoch : trace.epochs) {
    count += 8;
    put_u64(count, static_cast<std::uint64_t>(epoch.events.size()));
    for (const ChurnEvent& ev : epoch.events) {
      put_u32(rec, static_cast<std::uint32_t>(ev.kind));
      put_u32(rec + 4, 0);  // reserved.
      put_u64(rec + 8, static_cast<std::uint64_t>(ev.uid));
      put_u64(rec + 16, std::bit_cast<std::uint64_t>(ev.pos.x));
      put_u64(rec + 24, std::bit_cast<std::uint64_t>(ev.pos.y));
      put_u64(rec + 32, std::bit_cast<std::uint64_t>(ev.min_rate_bps));
      rec += kEventBytes;
    }
  }
  codec::write_document(out, kBinaryTraceMagic, sections);
}

ChurnTrace load_trace_binary(std::string_view data) {
  const obs::ScopedTimer timer(codec::binary_metrics().load_seconds);
  const std::vector<codec::SectionView> sections =
      codec::parse_document(data, "trace");
  UAVCOV_CHECK_MSG(sections.size() == 2 &&
                       sections[0].id == kSecEpochCounts &&
                       sections[1].id == kSecEvents,
                   "binary trace: expected sections 1 (epoch counts) and "
                   "2 (events), in that order");
  const std::string_view count_bytes = sections[0].bytes;
  const std::string_view event_bytes = sections[1].bytes;
  const auto at = [&](std::string_view section) {
    return std::to_string(section.data() - data.data());
  };

  const std::uint8_t* counts =
      reinterpret_cast<const std::uint8_t*>(count_bytes.data());
  UAVCOV_CHECK_MSG(count_bytes.size() >= 8,
                   "binary trace: truncated epoch-count section (" +
                       std::to_string(count_bytes.size()) +
                       " bytes at byte offset " + at(count_bytes) +
                       ", need 8)");
  // Bounded by division: 8 + 8 * epoch_count wraps for epoch counts near
  // 2^61, and a wrapped check would pass a count no section can hold.
  const std::uint64_t epoch_count = get_u64(counts);
  const std::uint64_t epoch_room = (count_bytes.size() - 8) / 8;
  UAVCOV_CHECK_MSG(epoch_count <= epoch_room &&
                       count_bytes.size() == 8 + 8 * epoch_count,
                   "binary trace: epoch-count section at byte offset " +
                       at(count_bytes) + " has " +
                       std::to_string(count_bytes.size()) +
                       " bytes, which do not hold exactly the " +
                       std::to_string(epoch_count) +
                       " epoch counts it declares");

  const std::uint64_t event_room = event_bytes.size() / kEventBytes;
  std::uint64_t total_events = 0;
  for (std::uint64_t e = 0; e < epoch_count; ++e) {
    const std::uint64_t n = get_u64(counts + 8 + 8 * e);
    UAVCOV_CHECK_MSG(n <= event_room - total_events,
                     "binary trace: event counts through epoch " +
                         std::to_string(e) + " exceed the " +
                         std::to_string(event_room) +
                         " records the event section at byte offset " +
                         at(event_bytes) + " holds");
    total_events += n;
  }
  UAVCOV_CHECK_MSG(event_bytes.size() == total_events * kEventBytes,
                   "binary trace: event section at byte offset " +
                       at(event_bytes) + " has " +
                       std::to_string(event_bytes.size()) +
                       " bytes, but the declared event counts need " +
                       std::to_string(total_events * kEventBytes));

  ChurnTrace trace;
  trace.epochs.resize(static_cast<std::size_t>(epoch_count));
  const std::uint8_t* rec =
      reinterpret_cast<const std::uint8_t*>(event_bytes.data());
  for (std::uint64_t e = 0; e < epoch_count; ++e) {
    const std::uint64_t n = get_u64(counts + 8 + 8 * e);
    Epoch& epoch = trace.epochs[static_cast<std::size_t>(e)];
    epoch.events.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i, rec += kEventBytes) {
      const std::uint32_t kind = get_u32(rec);
      UAVCOV_CHECK_MSG(kind <= 2, "binary trace: unknown event kind " +
                                      std::to_string(kind));
      ChurnEvent ev;
      ev.kind = static_cast<ChurnKind>(kind);
      ev.uid = static_cast<std::int64_t>(get_u64(rec + 8));
      ev.pos.x = std::bit_cast<double>(get_u64(rec + 16));
      ev.pos.y = std::bit_cast<double>(get_u64(rec + 24));
      ev.min_rate_bps = std::bit_cast<double>(get_u64(rec + 32));
      check_event_fields(ev, "binary trace");
      epoch.events.push_back(ev);
    }
  }
  codec::binary_metrics().loads.inc();
  codec::binary_metrics().bytes_read.inc(
      static_cast<std::int64_t>(data.size()));
  return trace;
}

}  // namespace

void save_trace(std::ostream& out, const stream::ChurnTrace& trace,
                Format format) {
  if (format == Format::kBinary) {
    save_trace_binary(out, trace);
  } else {
    save_trace_text(out, trace);
  }
}

void save_trace_file(const std::string& path, const stream::ChurnTrace& trace,
                     Format format) {
  std::ofstream out;
  codec::open_checked(out, path);
  save_trace(out, trace, format);
  UAVCOV_CHECK_MSG(out.good(), "failed writing trace to " + path);
}

stream::ChurnTrace load_trace(std::string_view bytes) {
  const std::string_view kind = codec::binary_kind(bytes);
  if (kind == "trace") return load_trace_binary(bytes);
  codec::reject_binary_kind(kind, "trace", "load_trace");
  std::istringstream in{std::string(bytes)};
  return load_trace_text(in);
}

stream::ChurnTrace load_trace(std::istream& in) {
  return load_trace(std::string_view(codec::slurp(in)));
}

stream::ChurnTrace load_trace_file(const std::string& path) {
  std::ifstream in;
  codec::open_checked(in, path);
  return load_trace(in);
}

}  // namespace uavcov::io
