#include "trace.hpp"

#include <mutex>

namespace perfbench {

namespace {

struct NameTable {
    std::mutex mutex;
    std::vector<std::string> names;
};

NameTable& name_table() {
    static NameTable table;
    return table;
}

}  // namespace

std::int64_t now_ns() noexcept {
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch)
        .count();
}

std::uint32_t SpanLog::intern(std::string_view name) {
    NameTable& table = name_table();
    const std::lock_guard lock(table.mutex);
    for (std::size_t i = 0; i < table.names.size(); ++i) {
        if (table.names[i] == name) return static_cast<std::uint32_t>(i);
    }
    table.names.emplace_back(name);
    return static_cast<std::uint32_t>(table.names.size() - 1);
}

std::string SpanLog::name_of(std::uint32_t id) {
    NameTable& table = name_table();
    const std::lock_guard lock(table.mutex);
    return table.names.at(id);
}

TimedScheduler::TimedScheduler(std::unique_ptr<lcf::sched::Scheduler> inner,
                               SpanLog& log)
    : inner_(std::move(inner)),
      log_(log),
      reads_columns_(inner_->name().starts_with("lcf_")) {
    const std::string module = reads_columns_ ? "core." : "sched.";
    span_name_ = SpanLog::intern(module + std::string(inner_->name()));
    transpose_name_ = SpanLog::intern("sched.transpose");
}

void TimedScheduler::schedule(const lcf::sched::RequestMatrix& requests,
                              lcf::sched::Matching& out) {
    if (reads_columns_) {
        const ScopedSpan span(log_, transpose_name_);
        requests.sync_columns();
    }
    {
        const ScopedSpan span(log_, span_name_);
        inner_->schedule(requests, out);
    }
    ++checked_;
    if (!out.valid_for(requests)) ++invalid_;
}

TimedTraffic::TimedTraffic(std::unique_ptr<lcf::traffic::TrafficGenerator> inner,
                           SpanLog& log, std::string_view span_name)
    : inner_(std::move(inner)),
      log_(log),
      span_name_(SpanLog::intern(span_name)) {}

}  // namespace perfbench
