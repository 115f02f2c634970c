// Drives the Clint bulk channel through a deterministic fault storm —
// staggered host crash/restart cycles, control-link outages, payload
// and acknowledgment loss epochs, bit-error bursts, and scheduler
// stalls — with paranoid invariant checking on, then prints what the
// recovery machinery did about it: retransmissions, recoveries and
// their latency, duplicate suppression, abandonment, and the exact
// conservation identity the accounting maintains.
//
//   ./fault_storm
//   ./fault_storm --hosts 8 --slots 50000 --ber 1e-5 --crash-every 4000

#include <iostream>
#include <memory>
#include <stdexcept>

#include "clint/bulk_channel.hpp"
#include "traffic/bernoulli.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    std::uint64_t hosts = 8;
    std::uint64_t slots = 30000;
    double load = 0.5;
    double ber = 1e-6;
    std::uint64_t crash_every = 5000;
    std::uint64_t outage = 1000;
    double loss = 0.05;
    lcf::util::CliParser cli(
        "Clint bulk channel under a deterministic fault storm");
    cli.flag("hosts", "cluster size (<= 16)", &hosts)
        .flag("slots", "slots to simulate", &slots)
        .flag("load", "bulk packets per host per slot", &load)
        .flag("ber", "baseline link bit-error rate", &ber)
        .flag("crash-every", "one host crashes every this many slots "
                             "(0 = no crashes)", &crash_every)
        .flag("outage", "length of each link-down burst in slots", &outage)
        .flag("loss", "packet-loss probability during storm epochs", &loss);
    if (!cli.parse(argc, argv)) return cli.exit_code();

    lcf::clint::BulkChannelConfig config;
    config.hosts = hosts;
    config.slots = slots;
    config.warmup_slots = slots / 10;
    config.bit_error_rate = ber;
    config.max_retries = 16;
    config.exponential_backoff = true;
    config.paranoid = true;

    // The storm: rotate crashes through the hosts, knock one uplink and
    // one downlink out for a burst, and lay loss epochs over the data
    // and ack paths for the middle half of the run.
    auto& plan = config.fault_plan;
    if (crash_every > 0 && hosts > 0) {  // hosts == 0 is rejected below
        std::size_t victim = 0;
        for (std::uint64_t at = crash_every; at + crash_every / 2 < slots;
             at += crash_every) {
            plan.add_host_crash(victim, at, at + crash_every / 2);
            victim = (victim + 1) % hosts;
        }
    }
    plan.add_link_down({lcf::fault::LinkKind::kUplink, 1}, slots / 4,
                       slots / 4 + outage);
    plan.add_link_down({lcf::fault::LinkKind::kDownlink, 2}, slots / 2,
                       slots / 2 + outage);
    plan.add_packet_loss({lcf::fault::LinkKind::kData, lcf::fault::kAllLinks},
                         slots / 4, 3 * slots / 4, loss);
    plan.add_packet_loss({lcf::fault::LinkKind::kAck, lcf::fault::kAllLinks},
                         slots / 4, 3 * slots / 4, loss);
    plan.add_scheduler_stall(slots / 3, slots / 3 + 64);

    // Every setting the channel, its fault plan or the traffic model
    // rejects throws here, before the run.
    std::unique_ptr<lcf::clint::BulkChannelSim> sim;
    try {
        sim = std::make_unique<lcf::clint::BulkChannelSim>(
            config, std::make_unique<lcf::traffic::BernoulliUniform>(load));
    } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    std::cout << "Fault storm: " << hosts << " hosts, " << slots
              << " slots, load " << load << ", baseline BER " << ber
              << ", storm loss " << loss << "\n\n";

    const auto r = sim->run();
    const auto a = sim->accounting();

    using lcf::util::AsciiTable;
    AsciiTable t;
    t.header({"metric", "value"});
    t.add_row({"generated", std::to_string(r.generated)});
    t.add_row({"delivered (unique)", std::to_string(r.delivered_unique)});
    t.add_row({"duplicates suppressed",
               std::to_string(r.duplicate_deliveries)});
    t.add_row({"retransmissions", std::to_string(r.retransmissions)});
    t.add_row({"recovered deliveries", std::to_string(r.recovered)});
    t.add_row({"mean recovery delay [slots]",
               AsciiTable::num(r.mean_recovery_delay, 2)});
    t.add_row({"abandoned (undelivered)", std::to_string(r.abandoned)});
    t.add_row({"lost to crashes", std::to_string(r.crash_lost)});
    t.add_row({"configs / grants lost",
               std::to_string(r.configs_lost) + " / " +
                   std::to_string(r.grants_lost)});
    t.add_row({"fault crashes / restarts",
               std::to_string(r.faults.crashes) + " / " +
                   std::to_string(r.faults.restarts)});
    t.add_row({"fault packet drops", std::to_string(r.faults.packets_dropped)});
    t.add_row({"stalled scheduler slots",
               std::to_string(r.sched.stalled_cycles)});
    t.add_row({"p50 / p99 delay [slots]",
               std::to_string(r.p50_delay) + " / " +
                   std::to_string(r.p99_delay)});
    t.add_row({"goodput", AsciiTable::num(r.goodput, 3)});
    t.print(std::cout);

    std::cout << "\nConservation: " << a.generated << " generated = "
              << a.delivered_unique << " delivered + " << a.queued
              << " queued + " << a.in_flight << " in flight + " << a.dropped
              << " dropped + " << a.abandoned << " abandoned -> "
              << (a.balanced() ? "EXACT" : "VIOLATED") << "\n";
    if (!a.balanced()) return 1;
    std::cout << "Paranoid invariant checks: "
              << (r.sched.paranoid_violations == 0 ? "clean" : "VIOLATIONS")
              << "\n";
    return r.sched.paranoid_violations == 0 ? 0 : 1;
}
