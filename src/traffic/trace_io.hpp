#pragma once
// Trace persistence and capture: save arrival traces to CSV, load them
// back, and record the output of any generator so that a stochastic
// workload can be replayed exactly (for bug reproduction, cross-
// scheduler comparisons on identical arrivals, or feeding external
// traces into the simulator).

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "traffic/trace.hpp"

namespace lcf::traffic {

/// Write entries as CSV with a `slot,input,destination` header.
void write_trace_csv(std::ostream& out, const std::vector<TraceEntry>& entries);

/// Parse a trace CSV (as produced by write_trace_csv). Blank lines, a
/// UTF-8 byte-order mark at the start of the file and one header row,
/// the first non-blank line, are tolerated. Throws std::runtime_error
/// on malformed rows.
std::vector<TraceEntry> read_trace_csv(std::istream& in);

/// Decorator that forwards to an inner generator while recording every
/// arrival it produces. After a run, take() yields the trace.
class RecordingTraffic final : public TrafficGenerator {
public:
    explicit RecordingTraffic(std::unique_ptr<TrafficGenerator> inner);

    // Note: no arrivals() override — the inherited batch default
    // dispatches through arrival(), so batched callers are recorded too.
    std::int32_t arrival(std::size_t input, std::uint64_t slot) override;
    [[nodiscard]] double offered_load() const noexcept override {
        return inner_->offered_load();
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return "recording";
    }

    /// The arrivals recorded so far (in call order).
    [[nodiscard]] const std::vector<TraceEntry>& entries() const noexcept {
        return entries_;
    }
    /// Move the recorded trace out.
    [[nodiscard]] std::vector<TraceEntry> take() noexcept {
        return std::move(entries_);
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override;

private:
    std::unique_ptr<TrafficGenerator> inner_;
    std::vector<TraceEntry> entries_;
};

}  // namespace lcf::traffic
