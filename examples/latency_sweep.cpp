// Latency-versus-load sweep for any subset of the Figure 12
// configurations, with CSV output — the programmable version of
// bench_fig12_latency for users who want their own grids, traffic
// patterns, or switch geometries.
//
//   ./latency_sweep --schedulers lcf_central,islip,outbuf
//                   --loads 0.5,0.8,0.95 --traffic bursty --csv out.csv
// (one command line; wrapped here for width)

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/runner.hpp"
#include "traffic/traffic.hpp"
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

// All of `text` as a number; "abc" and "0.5x" are rejected.
double parse_load(const std::string& text) {
    char* end = nullptr;
    const double load = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size()) {
        throw std::invalid_argument("load is not a number: " + text);
    }
    return load;
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
    // command line. Defaults are SimConfig's (paper values) except for
    // the run length.
    lcf::sim::SimConfig config;
    config.slots = 50000;
    config.warmup_slots = 0;  // 0 = slots / 10
    std::uint64_t iterations = 4;
    std::uint64_t threads = 0;

    std::string traffic_help;
    for (const auto& name : lcf::traffic::traffic_names()) {
        if (!traffic_help.empty()) traffic_help += '|';
        traffic_help += name;
    }

    lcf::util::CliParser cli("Custom latency-vs-load sweep");
    cli.flag("schedulers", "comma-separated Figure 12 names", &schedulers)
        .flag("loads", "comma-separated offered loads", &loads_arg)
        .flag("traffic", traffic_help, &traffic)
        .flag("csv", "write results to this CSV file", &csv_path)
        .flag("ports", "switch radix", &config.ports)
        .flag("slots", "slots per grid point", &config.slots)
        .flag("warmup-slots", "slots excluded from statistics (0 = slots/10)",
              &config.warmup_slots)
        .flag("seed", "simulation RNG seed", &config.seed)
        .flag("voq-capacity", "entries per virtual output queue",
              &config.voq_capacity)
        .flag("pq-capacity", "entries per input packet queue",
              &config.pq_capacity)
        .flag("fifo-capacity", "per-input FIFO depth (fifo mode)",
              &config.fifo_capacity)
        .flag("outbuf-capacity", "per-output buffer depth",
              &config.outbuf_capacity)
        .flag("speedup", "crossbar speedup s (scheduler runs s times/slot)",
              &config.speedup)
        .flag("clos-middle", "Clos middle switches (0 = ideal crossbar)",
              &config.clos_middle)
        .flag("clos-group", "Clos ports per ingress/egress switch",
              &config.clos_group)
        .flag("trace-capacity", "per-cycle trace ring size (0 = off)",
              &config.trace_capacity)
        .flag("record-service-matrix", "record per-flow delivery counts",
              &config.record_service_matrix)
        .flag("iterations", "iterative-scheduler iterations", &iterations)
        .flag("threads", "worker threads (0 = all cores)", &threads)
        .flag("paranoid", "validate scheduler invariants every cycle",
              &config.paranoid);
    if (!cli.parse(argc, argv)) return cli.exit_code();
    if (config.warmup_slots == 0) config.warmup_slots = config.slots / 10;

    // A load that is not a number, or a configuration the simulator
    // rejects (speedup 0, a Clos group that does not divide the ports,
    // zero-capacity VOQs, a load above 1, an unknown scheduler, ...), is
    // a usage error, reported like an unknown flag.
    std::vector<lcf::sim::SweepPoint> points;
    try {
        std::vector<double> loads;
        for (const auto& l : split(loads_arg)) loads.push_back(parse_load(l));
        points = lcf::sim::sweep(
            split(schedulers), loads, config, traffic,
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

    if (config.paranoid) {
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
