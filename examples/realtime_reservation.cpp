// §4.3's motivating use of the precalculated schedule: real-time
// traffic. A periodic flow needs one switch slot every P cycles with
// bounded jitter. Under regular LCF scheduling the flow competes with
// background traffic and its service times jitter; reserving its slot
// through the precalculated schedule makes service exactly periodic —
// the reservation wins stage 1 before any LCF decision is taken.
//
//   ./realtime_reservation
//   ./realtime_reservation --period 8 --background 0.9

#include <cmath>
#include <iostream>
#include <vector>

#include "core/lcf_central.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using lcf::core::LcfCentralScheduler;
using lcf::core::MulticastResult;
using lcf::core::PrecalcSchedule;
using lcf::sched::RequestMatrix;

struct JitterStats {
    lcf::util::RunningStat gaps;  // cycles between consecutive services
    std::uint64_t services = 0;
};

/// Run `cycles` scheduling cycles with random background backlog; the
/// real-time flow is [rt_input, rt_output], persistently backlogged.
/// When `reserve` is true it claims its slot via the precalculated
/// schedule every `period` cycles; otherwise it is an ordinary request.
JitterStats run(std::size_t n, std::size_t cycles, double background,
                std::size_t period, bool reserve, std::uint64_t seed) {
    constexpr std::size_t kRtInput = 0;
    constexpr std::size_t kRtOutput = 0;

    LcfCentralScheduler scheduler(
        lcf::core::LcfCentralOptions{.variant = lcf::core::RrVariant::kNone});
    scheduler.reset(n, n);
    lcf::util::Xoshiro256 rng(seed);

    JitterStats stats;
    std::uint64_t last_service = 0;
    bool seen_first = false;
    for (std::size_t c = 0; c < cycles; ++c) {
        RequestMatrix requests(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (rng.next_bool(background)) requests.set(i, j);
            }
        }
        requests.set(kRtInput, kRtOutput);  // the flow is always backlogged

        PrecalcSchedule pre(n);
        if (reserve && c % period == 0) {
            pre.claim(kRtInput, kRtOutput);
        }
        MulticastResult out;
        scheduler.schedule_with_precalc(requests, pre, out);

        if (out.fanout[kRtOutput] == static_cast<std::int32_t>(kRtInput)) {
            if (seen_first) {
                stats.gaps.add(static_cast<double>(c - last_service));
            }
            last_service = c;
            seen_first = true;
            ++stats.services;
        }
    }
    return stats;
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t ports = 16;
    std::uint64_t cycles = 20000;
    std::uint64_t period = 4;
    double background = 0.8;
    lcf::util::CliParser cli("Real-time slot reservation via the "
                             "precalculated schedule (§4.3)");
    cli.flag("ports", "switch radix", &ports)
        .flag("cycles", "scheduling cycles", &cycles)
        .flag("period", "reserve one slot every P cycles", &period)
        .flag("background", "background request density", &background);
    if (!cli.parse(argc, argv)) return cli.exit_code();
    // The flow [I0 -> T0] needs one port, a reservation needs a period,
    // and the background density is a probability.
    const char* bad = ports == 0        ? "--ports must be at least 1"
                      : period == 0     ? "--period must be at least 1"
                      : !(background >= 0.0 && background <= 1.0)
                          ? "--background must be in [0, 1]"
                          : nullptr;
    if (bad != nullptr) {
        std::cerr << "error: " << bad << "\n";
        return 2;
    }

    std::cout << "Real-time flow [I0 -> T0] on a " << ports
              << "-port switch, background density " << background
              << ", target period " << period << " cycles.\n\n";

    lcf::util::AsciiTable t;
    t.header({"mode", "services", "mean gap", "gap stddev (jitter)",
              "max gap"});
    for (const bool reserve : {false, true}) {
        const auto s = run(ports, cycles, background, period, reserve, 99);
        t.add_row({reserve ? "precalc reservation" : "best effort (pure LCF)",
                   std::to_string(s.services),
                   lcf::util::AsciiTable::num(s.gaps.mean(), 2),
                   lcf::util::AsciiTable::num(s.gaps.stddev(), 2),
                   lcf::util::AsciiTable::num(s.gaps.max(), 0)});
    }
    t.print(std::cout);
    std::cout << "\nWith the reservation, the flow is served on a hard "
                 "schedule: the precalculated stage admits it before any "
                 "LCF decision, so jitter collapses (extra best-effort "
                 "services may still occur between reservations).\n"
                 "Without it, service depends on the competition: gaps "
                 "vary and can stretch far beyond the target period.\n";
    return 0;
}
