// Latency-versus-load sweep for any subset of the Figure 12
// configurations, with CSV output — the programmable version of
// bench_fig12_latency for users who want their own grids, traffic
// patterns, or switch geometries.
//
//   ./latency_sweep --schedulers lcf_central,islip,outbuf
//                   --loads 0.5,0.8,0.95 --traffic bursty --csv out.csv
// (one command line; wrapped here for width)

#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "sim/runner.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/table.hpp"

namespace {

std::vector<std::string> split(const std::string& s) {
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ',')) {
        if (!item.empty()) out.push_back(item);
    }
    return out;
}

}  // namespace

int main(int argc, char** argv) {
    std::string schedulers = "lcf_central,lcf_central_rr,islip,pim,outbuf";
    std::string loads_arg = "0.1,0.3,0.5,0.7,0.8,0.9,0.95,1.0";
    std::string traffic = "uniform";
    std::string csv_path;
    // Flagship CLI contract (tools/lint_contracts.py, rule
    // config-surface): every scalar SimConfig knob is exposed as a flag
    // here, so any simulation the library can run is reachable from the
    // command line. Defaults mirror SimConfig's (paper values).
    lcf::sim::SimConfig defaults;
    std::uint64_t ports = defaults.ports;
    std::uint64_t slots = 50000;
    std::uint64_t warmup_slots = 0;  // 0 = slots / 10
    std::uint64_t seed = defaults.seed;
    std::uint64_t voq_capacity = defaults.voq_capacity;
    std::uint64_t pq_capacity = defaults.pq_capacity;
    std::uint64_t fifo_capacity = defaults.fifo_capacity;
    std::uint64_t outbuf_capacity = defaults.outbuf_capacity;
    std::uint64_t speedup = defaults.speedup;
    std::uint64_t clos_middle = defaults.clos_middle;
    std::uint64_t clos_group = defaults.clos_group;
    std::uint64_t trace_capacity = defaults.trace_capacity;
    std::uint64_t iterations = 4;
    std::uint64_t threads = 0;
    bool record_service_matrix = defaults.record_service_matrix;
    bool paranoid = false;

    lcf::util::CliParser cli("Custom latency-vs-load sweep");
    cli.flag("schedulers", "comma-separated Figure 12 names", &schedulers)
        .flag("loads", "comma-separated offered loads", &loads_arg)
        .flag("traffic", "uniform|bursty|hotspot|diagonal|permutation",
              &traffic)
        .flag("csv", "write results to this CSV file", &csv_path)
        .flag("ports", "switch radix", &ports)
        .flag("slots", "slots per grid point", &slots)
        .flag("warmup-slots", "slots excluded from statistics (0 = slots/10)",
              &warmup_slots)
        .flag("seed", "simulation RNG seed", &seed)
        .flag("voq-capacity", "entries per virtual output queue",
              &voq_capacity)
        .flag("pq-capacity", "entries per input packet queue", &pq_capacity)
        .flag("fifo-capacity", "per-input FIFO depth (fifo mode)",
              &fifo_capacity)
        .flag("outbuf-capacity", "per-output buffer depth", &outbuf_capacity)
        .flag("speedup", "crossbar speedup s (scheduler runs s times/slot)",
              &speedup)
        .flag("clos-middle", "Clos middle switches (0 = ideal crossbar)",
              &clos_middle)
        .flag("clos-group", "Clos ports per ingress/egress switch",
              &clos_group)
        .flag("trace-capacity", "per-cycle trace ring size (0 = off)",
              &trace_capacity)
        .flag("record-service-matrix", "record per-flow delivery counts",
              &record_service_matrix)
        .flag("iterations", "iterative-scheduler iterations", &iterations)
        .flag("threads", "worker threads (0 = all cores)", &threads)
        .flag("paranoid", "validate scheduler invariants every cycle",
              &paranoid);
    if (!cli.parse(argc, argv)) return cli.exit_code();

    const auto names = split(schedulers);
    std::vector<double> loads;
    for (const auto& l : split(loads_arg)) loads.push_back(std::stod(l));
    for (const auto& name : names) {
        if (name != "outbuf" && !lcf::core::is_scheduler_name(name)) {
            std::cerr << "unknown scheduler: " << name << "\n";
            return 2;
        }
    }

    lcf::sim::SimConfig config;
    config.ports = ports;
    config.slots = slots;
    config.warmup_slots = warmup_slots != 0 ? warmup_slots : slots / 10;
    config.seed = seed;
    config.voq_capacity = voq_capacity;
    config.pq_capacity = pq_capacity;
    config.fifo_capacity = fifo_capacity;
    config.outbuf_capacity = outbuf_capacity;
    config.speedup = speedup;
    config.clos_middle = clos_middle;
    config.clos_group = clos_group;
    config.trace_capacity = trace_capacity;
    config.record_service_matrix = record_service_matrix;
    config.paranoid = paranoid;

    // A configuration the simulator rejects (speedup 0, a Clos group
    // that does not divide the ports, zero-capacity VOQs, a load above
    // 1, ...) is a usage error, reported like an unknown flag.
    std::vector<lcf::sim::SweepPoint> points;
    try {
        points = lcf::sim::sweep(
            names, loads, config, traffic,
            lcf::sched::SchedulerConfig{.iterations = iterations}, threads);
    } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    lcf::util::AsciiTable t;
    t.header({"scheduler", "load", "mean delay", "p50", "p99", "throughput",
              "dropped"});
    for (const auto& p : points) {
        t.add_row({p.config_name, lcf::util::AsciiTable::num(p.load, 2),
                   lcf::util::AsciiTable::num(p.result.mean_delay, 2),
                   lcf::util::AsciiTable::num(p.result.p50_delay, 0),
                   lcf::util::AsciiTable::num(p.result.p99_delay, 0),
                   lcf::util::AsciiTable::num(p.result.throughput, 3),
                   std::to_string(p.result.dropped)});
    }
    t.print(std::cout);

    if (paranoid) {
        const auto totals = lcf::sim::aggregate_counters(points);
        std::cout << "paranoid: " << totals.cycles
                  << " scheduling cycles validated across all points, "
                  << totals.paranoid_violations << " violations, max "
                  << "starvation age " << totals.max_starvation_age << "\n";
    }

    if (!csv_path.empty()) {
        std::ofstream out(csv_path);
        if (!out) {
            std::cerr << "error: cannot write CSV file " << csv_path << "\n";
            return 1;
        }
        lcf::util::CsvWriter csv(out);
        csv.row("scheduler", "traffic", "load", "mean_delay", "p50_delay",
                "p99_delay", "throughput", "generated", "delivered",
                "dropped");
        for (const auto& p : points) {
            csv.row(p.config_name, traffic, p.load, p.result.mean_delay,
                    p.result.p50_delay, p.result.p99_delay,
                    p.result.throughput, p.result.generated,
                    p.result.delivered, p.result.dropped);
        }
        std::cout << "CSV written to " << csv_path << "\n";
    }
    return 0;
}
