#pragma once
// Convenience layer tying scheduler names, traffic patterns, and the
// simulator together — this is what the examples and benchmark harnesses
// call. A "configuration name" is one of the paper's nine Figure 12
// labels (core::figure12_names()), or any other registered scheduler.

#include <string>
#include <string_view>
#include <vector>

#include "sched/scheduler.hpp"
#include "sim/metrics.hpp"
#include "sim/switch_sim.hpp"

namespace lcf::sim {

/// Run one simulation for the Figure 12 configuration `config_name`
/// ("fifo"/"outbuf" select their switch modes, everything else runs a
/// VOQ switch with that scheduler) under `traffic_name` traffic at
/// `load`. `base.mode` is overridden as needed. Unknown configuration
/// or traffic names throw std::invalid_argument listing the valid ones.
SimResult run_named(std::string_view config_name, const SimConfig& base,
                    std::string_view traffic_name, double load,
                    const sched::SchedulerConfig& sched_config = {});

/// One grid point of a sweep.
struct SweepPoint {
    std::string config_name;
    double load = 0.0;
    SimResult result;
};

/// Run the full (configuration × load) grid, using `threads` worker
/// threads (0 = the process-wide util::ThreadPool::shared(), so
/// repeated sweeps reuse one set of workers). Results are returned in
/// config-major, load-minor order regardless of completion order.
std::vector<SweepPoint> sweep(const std::vector<std::string>& config_names,
                              const std::vector<double>& loads,
                              const SimConfig& base,
                              std::string_view traffic_name,
                              const sched::SchedulerConfig& sched_config = {},
                              std::size_t threads = 0);

/// The load grid of Figure 12: 0.05 steps up to 0.9, then finer steps
/// through the high-load knee up to 1.0.
std::vector<double> figure12_loads();

/// Merge the per-run scheduler counters of every sweep point into one
/// aggregate (totals summed, maxima kept), regardless of which worker
/// thread produced each point.
obs::SchedCounters aggregate_counters(const std::vector<SweepPoint>& points);

}  // namespace lcf::sim
