#include "traffic/trace_io.hpp"

#include <charconv>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>

namespace lcf::traffic {

void write_trace_csv(std::ostream& out,
                     const std::vector<TraceEntry>& entries) {
    out << "slot,input,destination\n";
    for (const auto& e : entries) {
        out << e.slot << ',' << e.input << ',' << e.destination << '\n';
    }
}

namespace {

/// The UTF-8 byte-order mark some editors put at the start of a file.
constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

std::uint64_t parse_field(std::string_view field, std::size_t line_no) {
    std::uint64_t value{};
    const auto [p, ec] =
        std::from_chars(field.data(), field.data() + field.size(), value);
    if (ec != std::errc{} || p != field.data() + field.size()) {
        throw std::runtime_error("trace CSV: bad number on line " +
                                 std::to_string(line_no));
    }
    return value;
}

}  // namespace

std::vector<TraceEntry> read_trace_csv(std::istream& in) {
    std::vector<TraceEntry> entries;
    std::string line;
    std::size_t line_no = 0;
    bool first = true;  // no non-blank line seen yet
    while (std::getline(in, line)) {
        ++line_no;
        if (line_no == 1 && line.starts_with(kUtf8Bom)) {
            line.erase(0, kUtf8Bom.size());
        }
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        // One header row, as the first non-blank line.
        if (std::exchange(first, false) && line.starts_with("slot")) continue;
        const auto c1 = line.find(',');
        const auto c2 = c1 == std::string::npos ? std::string::npos
                                                : line.find(',', c1 + 1);
        if (c1 == std::string::npos || c2 == std::string::npos) {
            throw std::runtime_error("trace CSV: expected 3 fields on line " +
                                     std::to_string(line_no));
        }
        TraceEntry e;
        e.slot = parse_field(std::string_view(line).substr(0, c1), line_no);
        e.input = parse_field(
            std::string_view(line).substr(c1 + 1, c2 - c1 - 1), line_no);
        e.destination =
            parse_field(std::string_view(line).substr(c2 + 1), line_no);
        entries.push_back(e);
    }
    return entries;
}

RecordingTraffic::RecordingTraffic(std::unique_ptr<TrafficGenerator> inner)
    : inner_(std::move(inner)) {
    if (inner_ == nullptr) {
        throw std::invalid_argument("recording traffic needs an inner generator");
    }
}

void RecordingTraffic::do_reset(std::size_t inputs, std::size_t outputs,
                                std::uint64_t seed) {
    inner_->reset(inputs, outputs, seed);
    entries_.clear();
}

std::int32_t RecordingTraffic::arrival(std::size_t input, std::uint64_t slot) {
    const std::int32_t dst = inner_->arrival(input, slot);
    if (dst != kNoArrival) {
        entries_.push_back(
            TraceEntry{slot, input, static_cast<std::size_t>(dst)});
    }
    return dst;
}

}  // namespace lcf::traffic
