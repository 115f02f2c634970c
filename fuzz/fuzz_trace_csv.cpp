// Fuzz harness for trace files (src/traffic/trace_io.hpp), the one
// external input the simulator reads. Three properties, checked on every
// input:
//
//   1. read_trace_csv() either returns entries or throws
//      std::runtime_error — no crash, no other exception type.
//   2. Parsed entries round-trip: read_trace_csv(write_trace_csv(e)) == e,
//      also with a UTF-8 byte-order mark and a blank line in front of
//      the header.
//   3. TraceTraffic either builds and resets on a 16-port switch or
//      throws std::invalid_argument. Once reset, its offered load lies in
//      (0, 1] for a non-empty trace (0 for an empty one), and every entry
//      replays at its (slot, input).
//
// Seed corpus: fuzz/corpus/trace_csv (tools/make_fuzz_corpus.py).

#include <cstdint>
#include <exception>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "fuzz_common.hpp"
#include "traffic/trace.hpp"
#include "traffic/trace_io.hpp"

namespace {

using lcf::traffic::TraceEntry;

constexpr std::size_t kPorts = 16;

void check_replay(const std::vector<TraceEntry>& entries) {
    std::optional<lcf::traffic::TraceTraffic> trace;
    try {
        trace.emplace(entries);
        trace->reset(kPorts, kPorts, 0);
    } catch (const std::invalid_argument&) {
        return;  // duplicate (slot, input) or a port outside 16x16
    }
    const double load = trace->offered_load();
    if (entries.empty()) {
        LCF_FUZZ_ASSERT(load == 0.0, "empty trace offers %g", load);
        return;
    }
    LCF_FUZZ_ASSERT(load > 0.0 && load <= 1.0,
                    "offered load %g outside (0, 1] for %zu entries", load,
                    entries.size());
    for (const auto& e : entries) {
        const std::int32_t dst = trace->arrival(e.input, e.slot);
        LCF_FUZZ_ASSERT(dst == static_cast<std::int32_t>(e.destination),
                        "slot %llu input %zu replays %d, recorded %zu",
                        static_cast<unsigned long long>(e.slot), e.input, dst,
                        e.destination);
    }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    // Property 1: the raw input as a trace file.
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(data), size));
    std::vector<TraceEntry> entries;
    try {
        entries = lcf::traffic::read_trace_csv(in);
    } catch (const std::runtime_error&) {
        return 0;
    } catch (const std::exception& e) {
        LCF_FUZZ_ASSERT(false, "read_trace_csv threw a non-runtime_error: %s",
                        e.what());
    }

    // Property 2: what was accepted writes back and re-reads unchanged.
    std::stringstream csv;
    lcf::traffic::write_trace_csv(csv, entries);
    const std::vector<TraceEntry> back = lcf::traffic::read_trace_csv(csv);
    LCF_FUZZ_ASSERT(entries == back,
                    "CSV round-trip changed %zu entries into %zu",
                    entries.size(), back.size());
    std::istringstream marked("\xEF\xBB\xBF\r\n" + csv.str());
    const std::vector<TraceEntry> back_marked =
        lcf::traffic::read_trace_csv(marked);
    LCF_FUZZ_ASSERT(entries == back_marked,
                    "CSV round-trip behind a BOM and a blank line changed "
                    "%zu entries into %zu",
                    entries.size(), back_marked.size());

    // Property 3: the entries as a replayed workload.
    check_replay(entries);
    return 0;
}
