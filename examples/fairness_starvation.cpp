// Demonstrates the throughput/fairness trade-off of §3 interactively:
// holds the paper's Figure 3 backlog on a 4x4 switch and shows, flow by
// flow, how maximum-size matching and pure LCF permanently starve
// contended requests while the round-robin variants serve every flow —
// with the achieved switch throughput printed alongside, so the price
// of each guarantee is visible.

#include <iomanip>
#include <iostream>
#include <optional>
#include <vector>

#include "core/factory.hpp"
#include "obs/paranoid_checker.hpp"
#include "sched/scheduler.hpp"
#include "util/cli.hpp"

namespace {

using lcf::sched::Matching;
using lcf::sched::RequestMatrix;

void show_service(lcf::sched::Scheduler& s, const RequestMatrix& r,
                  std::size_t cycles, bool paranoid) {
    const std::size_t n = r.inputs();
    std::vector<std::uint64_t> counts(n * n, 0);
    std::uint64_t grants = 0;
    // Pure LCF and maxsize starve flows by design here, so only the
    // structural invariants are checked — the fairness window applies
    // to the round-robin variants alone (options_for knows which).
    std::optional<lcf::obs::ParanoidChecker> checker;
    if (paranoid) {
        checker.emplace(lcf::obs::ParanoidChecker::options_for(s));
        checker->reset(n, n);
    }
    Matching m;
    for (std::size_t c = 0; c < cycles; ++c) {
        s.schedule(r, m);
        if (checker) {
            checker->check_cycle(r, m);
            checker->check_iterations(s.last_iterations());
        }
        for (std::size_t i = 0; i < n; ++i) {
            if (m.output_of(i) != lcf::sched::kUnmatched) {
                ++counts[i * n + static_cast<std::size_t>(m.output_of(i))];
                ++grants;
            }
        }
    }
    std::cout << "  service matrix (grants per flow over " << cycles
              << " cycles; '.' = no request):\n";
    for (std::size_t i = 0; i < n; ++i) {
        std::cout << "    I" << i << ": ";
        for (std::size_t j = 0; j < n; ++j) {
            if (!r.get(i, j)) {
                std::cout << std::setw(7) << ".";
            } else {
                std::cout << std::setw(7) << counts[i * n + j]
                          << (counts[i * n + j] == 0 ? "*" : " ");
            }
        }
        std::cout << "\n";
    }
    std::cout << "  mean grants/cycle: "
              << static_cast<double>(grants) / static_cast<double>(cycles)
              << "   (* = starved flow)\n";
    if (checker) {
        std::cout << "  paranoid: " << checker->cycles_checked()
                  << " cycles validated, " << checker->violation_count()
                  << " violations, max starvation age "
                  << checker->max_starvation_age() << "\n";
    }
    std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
    std::uint64_t cycles = 16000;
    bool paranoid = false;
    lcf::util::CliParser cli("Starvation demo on the paper's Figure 3 "
                             "backlog");
    cli.flag("cycles", "scheduling cycles to run", &cycles)
        .flag("paranoid", "validate scheduler invariants every cycle",
              &paranoid);
    if (!cli.parse(argc, argv)) return cli.exit_code();
    if (cycles == 0) {
        std::cerr << "error: --cycles must be positive\n";
        return 2;
    }

    // The Figure 3 request pattern, held persistent: every VOQ that is
    // non-empty stays non-empty (saturated flows).
    const RequestMatrix backlog = lcf::sched::make_requests(
        4, {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 3}, {2, 0}, {2, 2}, {2, 3},
            {3, 1}});

    std::cout << "Persistent backlog (Figure 3): I0->{T1,T2}, "
                 "I1->{T0,T2,T3}, I2->{T0,T2,T3}, I3->{T1}\n\n";
    std::cout << "A maximum-size matching always grants 4 connections here, "
                 "but the only size-4 matchings route T1 to I3 -- so I0's "
                 "request for T1 waits forever (§3's starvation argument).\n\n";

    for (const auto* name :
         {"maxsize", "lcf_central", "lcf_central_rr", "lcf_dist_rr"}) {
        auto s = lcf::core::make_scheduler(name);
        s->reset(4, 4);
        std::cout << name << ":\n";
        show_service(*s, backlog, cycles, paranoid);
    }

    std::cout << "lcf_central_rr trades ~maximum matchings for the hard "
                 "b/n^2 floor: every flow above is served at least "
              << cycles / 16 << " times.\n";
    return 0;
}
