#pragma once
// In-memory span log and the two timing decorators the traced benchmark
// runs wrap around the library's public interfaces. Nothing here reaches
// inside src/: a span starts and ends around a call into a Scheduler or
// TrafficGenerator, or around SwitchSim/Clint step() calls made by the
// benchmark loop in main.cpp.

#include <chrono>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sched/scheduler.hpp"
#include "traffic/traffic.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds on the steady clock since the first call in the process.
std::int64_t now_ns() noexcept;

/// One timed interval. `parent` indexes the enclosing span in the same
/// log (-1 for a root); `run` groups the spans of one simulated switch
/// or channel (a sweep grid point, a batch).
struct Span {
    std::uint32_t name = 0;
    std::int32_t parent = -1;
    std::uint32_t run = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
};

/// Spans of one single-threaded simulation, kept in memory. Not
/// thread-safe: each concurrently simulated switch owns its own log.
class SpanLog {
public:
    explicit SpanLog(std::uint32_t run) : run_(run) {}

    /// Id of `name` in the process-wide name table (interned once).
    static std::uint32_t intern(std::string_view name);
    /// Name registered under `id`.
    static std::string name_of(std::uint32_t id);

    /// Open a span nested in the innermost open one; returns its index.
    std::size_t open(std::uint32_t name) {
        const auto parent =
            stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
        spans_.push_back(Span{name, parent, run_, now_ns(), 0});
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }
    /// Close the innermost open span (which must be `index`).
    void close(std::size_t index) {
        spans_[index].end_ns = now_ns();
        stack_.pop_back();
    }

    [[nodiscard]] const std::vector<Span>& spans() const noexcept {
        return spans_;
    }

private:
    std::uint32_t run_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/// RAII span: open on construction, close on destruction.
class ScopedSpan {
public:
    ScopedSpan(SpanLog& log, std::uint32_t name)
        : log_(log), index_(log.open(name)) {}
    ~ScopedSpan() { log_.close(index_); }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

private:
    SpanLog& log_;
    std::size_t index_;
};

/// Scheduler decorator: forwards every virtual to the wrapped scheduler
/// and records a span around schedule(). The span is named by module:
/// "core.<name>" for the LCF schedulers, "sched.<name>" for baselines.
/// For LCF schedulers, which read the request matrix's column view, the
/// lazy transpose is forced first in its own "sched.transpose" span so
/// the LCF span holds only the scheduler's own work. Every matching is
/// checked with Matching::valid_for() outside the spans.
class TimedScheduler final : public lcf::sched::Scheduler {
public:
    TimedScheduler(std::unique_ptr<lcf::sched::Scheduler> inner, SpanLog& log);

    void reset(std::size_t inputs, std::size_t outputs) override {
        inner_->reset(inputs, outputs);
    }
    void schedule(const lcf::sched::RequestMatrix& requests,
                  lcf::sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }
    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return inner_->last_iterations();
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return inner_->iteration_limit();
    }
    [[nodiscard]] bool wants_queue_lengths() const noexcept override {
        return inner_->wants_queue_lengths();
    }
    void observe_queue_lengths(std::span<const std::uint32_t> lengths,
                               std::size_t outputs) override {
        inner_->observe_queue_lengths(lengths, outputs);
    }

    /// Matchings checked so far, and how many failed valid_for().
    [[nodiscard]] std::uint64_t checked() const noexcept { return checked_; }
    [[nodiscard]] std::uint64_t invalid() const noexcept { return invalid_; }

private:
    std::unique_ptr<lcf::sched::Scheduler> inner_;
    SpanLog& log_;
    std::uint32_t span_name_;
    std::uint32_t transpose_name_;
    bool reads_columns_;
    std::uint64_t checked_ = 0;
    std::uint64_t invalid_ = 0;
};

/// TrafficGenerator decorator: forwards every virtual to the wrapped
/// generator and records a span (named at construction) around each
/// batched arrivals() call. reset() is the base class's non-virtual
/// entry point; do_reset() forwards it whole to the wrapped generator.
class TimedTraffic final : public lcf::traffic::TrafficGenerator {
public:
    TimedTraffic(std::unique_ptr<lcf::traffic::TrafficGenerator> inner,
                 SpanLog& log, std::string_view span_name);

    std::int32_t arrival(std::size_t input, std::uint64_t slot) override {
        return inner_->arrival(input, slot);
    }
    void arrivals(std::uint64_t slot, std::int32_t* out) override {
        const ScopedSpan span(log_, span_name_);
        inner_->arrivals(slot, out);
    }
    [[nodiscard]] double offered_load() const noexcept override {
        return inner_->offered_load();
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }

protected:
    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) override {
        inner_->reset(inputs, outputs, seed);
    }

private:
    std::unique_ptr<lcf::traffic::TrafficGenerator> inner_;
    SpanLog& log_;
    std::uint32_t span_name_;
};

}  // namespace perfbench
