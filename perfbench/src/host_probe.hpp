#pragma once
// Host-speed probe. The benchmark shares its CPUs with other tenants, and
// their load changes how fast this host runs any code by tens of percent
// over minutes. probe_host() times a fixed integer kernel that shares no
// code or data with the library (an L1-resident table update, timed on
// its second pass so prior cache contents do not matter) on the calling
// thread, between the benchmark's timed intervals, so it sees the same
// core conditions as the workload around it. The median kernel time tells
// how fast the host ran during the run; main.cpp scales the end-to-end
// timings by it.

#include <cstddef>

namespace perfbench {

/// Time the kernel if the calling thread has not done so in the last
/// 10 ms. Thread-safe; call only outside timed intervals.
void probe_host();

struct ProbeSummary {
    double median_s = 0.0;
    std::size_t samples = 0;
};

/// Median kernel time over every probe_host() sample so far.
ProbeSummary probe_summary();

}  // namespace perfbench
