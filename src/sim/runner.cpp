#include "sim/runner.hpp"

#include <stdexcept>

#include "core/factory.hpp"
#include "util/thread_pool.hpp"

namespace lcf::sim {

SimResult run_named(std::string_view config_name, const SimConfig& base,
                    std::string_view traffic_name, double load,
                    const sched::SchedulerConfig& sched_config) {
    if (config_name != "outbuf" && !core::is_scheduler_name(config_name)) {
        std::string message = "unknown scheduler name: " +
                              std::string(config_name) + " (valid names: outbuf";
        for (const auto& valid : core::scheduler_names()) {
            message += " " + valid;
        }
        throw std::invalid_argument(message + ")");
    }
    if (!traffic::is_traffic_name(traffic_name)) {
        std::string message = "unknown traffic name: " +
                              std::string(traffic_name) + " (valid names:";
        for (const auto& valid : traffic::traffic_names()) {
            message += " " + valid;
        }
        throw std::invalid_argument(message + ")");
    }
    SimConfig config = base;
    std::unique_ptr<sched::Scheduler> scheduler;
    if (config_name == "outbuf") {
        config.mode = SwitchMode::kOutputBuffered;
    } else {
        config.mode =
            config_name == "fifo" ? SwitchMode::kFifo : SwitchMode::kVoq;
        scheduler = core::make_scheduler(config_name, sched_config);
    }
    auto traffic = traffic::make_traffic(traffic_name, load);
    SwitchSim sim(config, std::move(scheduler), std::move(traffic));
    return sim.run();
}

std::vector<SweepPoint> sweep(const std::vector<std::string>& config_names,
                              const std::vector<double>& loads,
                              const SimConfig& base,
                              std::string_view traffic_name,
                              const sched::SchedulerConfig& sched_config,
                              std::size_t threads) {
    std::vector<SweepPoint> points;
    points.reserve(config_names.size() * loads.size());
    for (const auto& name : config_names) {
        for (const double load : loads) {
            points.push_back(SweepPoint{name, load, {}});
        }
    }
    util::parallel_for_n(threads, 0, points.size(), [&](std::size_t k) {
        points[k].result = run_named(points[k].config_name, base, traffic_name,
                                     points[k].load, sched_config);
    });
    return points;
}

std::vector<double> figure12_loads() {
    std::vector<double> loads;
    for (int i = 1; i <= 18; ++i) {  // 0.05 .. 0.90
        loads.push_back(0.05 * i);
    }
    loads.insert(loads.end(), {0.92, 0.94, 0.96, 0.98, 1.0});
    return loads;
}

obs::SchedCounters aggregate_counters(const std::vector<SweepPoint>& points) {
    obs::SchedCounters total;
    for (const auto& point : points) total.merge(point.result.sched);
    return total;
}

}  // namespace lcf::sim
