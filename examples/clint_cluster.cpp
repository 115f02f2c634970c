// Simulates the Clint cluster interconnect of §4: sixteen hosts on a
// star topology with two physically separate channels — the bulk
// channel, scheduled collision-free by the central LCF scheduler
// through the three-stage pipeline of Figure 5 (configuration/grant,
// transfer, acknowledgment), and the quick channel, which sends
// immediately and drops on collision. Includes CRC-protected control
// packets and optional link-error injection.
//
//   ./clint_cluster
//   ./clint_cluster --hosts 8 --bulk-load 0.8 --ber 1e-6

#include <iostream>
#include <stdexcept>

#include "clint/clint_sim.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
    std::uint64_t hosts = 16;
    std::uint64_t slots = 20000;
    double bulk_load = 0.6;
    double quick_load = 0.2;
    double ber = 0.0;
    lcf::util::CliParser cli("Clint cluster simulation (bulk + quick "
                             "channels)");
    cli.flag("hosts", "cluster size (<= 16)", &hosts)
        .flag("slots", "slots to simulate (8.5 us each on real Clint)",
              &slots)
        .flag("bulk-load", "bulk packets per host per slot", &bulk_load)
        .flag("quick-load", "quick packets per host per slot", &quick_load)
        .flag("ber", "link bit-error rate", &ber);
    if (!cli.parse(argc, argv)) return cli.exit_code();

    lcf::clint::ClintConfig config;
    config.hosts = hosts;
    config.slots = slots;
    config.warmup_slots = slots / 10;
    config.bulk_load = bulk_load;
    config.quick_load = quick_load;
    config.bit_error_rate = ber;

    std::cout << "Clint cluster: " << hosts << " hosts, " << slots
              << " slots, bulk load " << bulk_load << ", quick load "
              << quick_load << ", BER " << ber << "\n\n";

    lcf::clint::ClintResult r;
    try {
        r = lcf::clint::run_clint(config);
    } catch (const std::invalid_argument& e) {
        std::cerr << "error: " << e.what() << "\n";
        return 2;
    }

    using lcf::util::AsciiTable;
    AsciiTable t;
    t.header({"metric", "bulk (LCF-scheduled)", "quick (best-effort)"});
    t.add_row({"generated", std::to_string(r.bulk.generated),
               std::to_string(r.quick.generated)});
    t.add_row({"delivered", std::to_string(r.bulk.delivered_unique),
               std::to_string(r.quick.delivered_unique)});
    t.add_row({"mean delay [slots]", AsciiTable::num(r.bulk.mean_delay, 2),
               AsciiTable::num(r.quick.mean_delay, 2)});
    t.add_row({"goodput / delivery", AsciiTable::num(r.bulk.goodput, 3),
               AsciiTable::num(r.quick.delivery_ratio, 3)});
    t.add_row({"collisions", "0 (scheduled)",
               std::to_string(r.quick.collisions)});
    t.add_row({"retransmissions", std::to_string(r.bulk.retransmissions),
               std::to_string(r.quick.retransmissions)});
    t.add_row({"CRC errors seen",
               std::to_string(r.bulk.config_crc_errors +
                              r.bulk.grant_crc_errors),
               std::to_string(r.quick.corruptions)});
    t.print(std::cout);

    std::cout << "\nOn the real Clint prototype a slot is 8.5 us (16-port, "
                 "32 Gbit/s aggregate); the LCF scheduler computes each "
                 "bulk schedule in 1.26 us of that window (Table 2).\n"
              << "The segregated design gives bulk traffic collision-free "
                 "throughput while quick traffic keeps single-slot latency "
                 "whenever its target is uncontended.\n";
    return 0;
}
