#include "host_probe.hpp"

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <vector>

#include "trace.hpp"

namespace perfbench {

namespace {

constexpr std::int64_t kProbeIntervalNs = 10'000'000;

std::mutex samples_mutex;
std::vector<double> samples;  // guarded by samples_mutex

/// Seconds for one pass of a fixed xorshift-driven update of a 32 KiB
/// table, timed on the second of two passes.
double time_kernel() {
    thread_local std::vector<std::uint64_t> table(std::size_t{1} << 12, 1);
    static volatile std::uint64_t sink = 0;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::uint64_t acc = 0;
    double seconds = 0.0;
    for (int pass = 0; pass < 2; ++pass) {
        const std::int64_t t0 = now_ns();
        for (int i = 0; i < 20000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint64_t& e = table[x & (table.size() - 1)];
            e += x;
            acc += e >> 3;
            if (acc & 1) acc ^= x;
        }
        seconds = static_cast<double>(now_ns() - t0) * 1e-9;
    }
    sink = sink + acc;
    return seconds;
}

}  // namespace

void probe_host() {
    thread_local std::int64_t last_ns = -kProbeIntervalNs;
    if (now_ns() - last_ns < kProbeIntervalNs) return;
    const double t = time_kernel();
    last_ns = now_ns();
    const std::lock_guard lock(samples_mutex);
    samples.push_back(t);
}

ProbeSummary probe_summary() {
    std::vector<double> sorted;
    {
        const std::lock_guard lock(samples_mutex);
        sorted = samples;
    }
    if (sorted.empty()) return {};
    const auto mid = sorted.begin() + static_cast<std::ptrdiff_t>(sorted.size() / 2);
    std::nth_element(sorted.begin(), mid, sorted.end());
    return {*mid, sorted.size()};
}

}  // namespace perfbench
