// Record a stochastic workload to a CSV trace, then replay it through
// different schedulers — apples-to-apples comparison on *identical*
// arrivals, and a template for feeding externally captured traces into
// the simulator.
//
//   ./record_replay                     # record, save, replay, compare
//   ./record_replay --trace my.csv      # choose the trace file path

#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "core/factory.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/bernoulli.hpp"
#include "traffic/trace_io.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

/// Record `config.slots` slots of Bernoulli traffic at `load` to
/// `trace_path`, then replay the trace through several schedulers and
/// print one row each. Throws std::invalid_argument for a configuration
/// the simulator or the traffic model rejects.
void record_and_replay(const lcf::sim::SimConfig& config, double load,
                       const std::string& trace_path) {
    using namespace lcf;
    // 1. Record: run one simulation with a recording decorator around
    //    the Bernoulli generator and save the tape.
    auto recording = std::make_unique<traffic::RecordingTraffic>(
        std::make_unique<traffic::BernoulliUniform>(load));
    traffic::RecordingTraffic* tape = recording.get();
    sim::SwitchSim recorder(config, core::make_scheduler("lcf_central_rr"),
                            std::move(recording));
    recorder.run();
    {
        std::ofstream out(trace_path);
        traffic::write_trace_csv(out, tape->entries());
    }
    std::cout << "Recorded " << tape->entries().size() << " arrivals to "
              << trace_path << "\n\n";

    // 2. Replay: load the trace back and run every scheduler on the
    //    exact same arrival sequence.
    std::ifstream in(trace_path);
    const auto entries = traffic::read_trace_csv(in);

    util::AsciiTable t;
    t.header({"scheduler", "mean delay", "p99 delay", "delivered"});
    for (const auto* name :
         {"lcf_central", "lcf_central_rr", "lcf_dist", "pim", "islip",
          "wfront"}) {
        sim::SwitchSim replay(config, core::make_scheduler(name),
                              std::make_unique<traffic::TraceTraffic>(entries));
        const auto r = replay.run();
        t.add_row({name, util::AsciiTable::num(r.mean_delay, 2),
                   util::AsciiTable::num(r.p99_delay, 0),
                   std::to_string(r.delivered)});
    }
    t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
    std::string trace_path = "recorded_trace.csv";
    std::uint64_t ports = 16;
    std::uint64_t slots = 20000;
    double load = 0.85;
    lcf::util::CliParser cli("Record a workload, replay it across "
                             "schedulers");
    cli.flag("trace", "trace CSV path", &trace_path)
        .flag("ports", "switch radix", &ports)
        .flag("slots", "slots to record", &slots)
        .flag("load", "offered load while recording", &load);
    if (!cli.parse(argc, argv)) return cli.exit_code();

    lcf::sim::SimConfig config;
    config.ports = ports;
    config.slots = slots;
    config.warmup_slots = slots / 10;

    try {
        record_and_replay(config, load, trace_path);
    } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }
    std::cout << "\nIdentical arrivals for every row: the delay spread is "
                 "pure scheduling quality, with zero traffic noise.\n";
    return 0;
}
