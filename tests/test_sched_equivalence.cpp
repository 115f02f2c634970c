// Equivalence property suite for the word-parallel scheduler rewrite:
// every optimized LCF scheduler must produce BIT-IDENTICAL matchings —
// and identical last_iterations() — to its `*_reference` twin (the
// per-bit transcription of the paper's pseudocode kept in
// oracles/lcf_reference.hpp) on every cycle of a long randomized run,
// over square and rectangular geometries and every round-robin variant.
// The baselines (Figure 12's islip, pim, wfront and fifo, and the rrm
// and ilqf extensions) are held to the same standard against the per-bit
// oracles in baseline_oracles.hpp; ilqf's twin sees the same random
// queue-length snapshot every cycle.
// oracle::make_twin() builds either kind. Both twins keep their instance
// across all cycles of a geometry, so diverging round-robin pointers or
// RNG streams show up as a later mismatch. The optimized schedulers'
// outputs additionally run under the ParanoidChecker, so the
// optimizations cannot trade invariants for speed.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "core/lcf_central.hpp"
#include "core/precalc.hpp"
#include "obs/paranoid_checker.hpp"
#include "oracles/lcf_reference.hpp"
#include "oracles/twin.hpp"
#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"
#include "util/rng.hpp"

namespace lcf {
namespace {

struct Geometry {
    std::size_t inputs;
    std::size_t outputs;
};

// Square radices below, at, and above one 64-bit word, plus both
// rectangular orientations. With the wide ones they reach every input
// word count the LCF cores' NRQ-plane kernel is compiled for (1, 2 and 4
// words; 3 and 8 words take the run-time-width fallback), each full-word
// edge (64: the Figure-12 perfbench geometry, 128) and NRQs up to 256
// (67x256: 9 NRQ planes).
const Geometry kGeometries[] = {
    {16, 16},   {13, 13},   {64, 64},   {67, 67},   {12, 20},  {20, 12},
    {128, 128}, {256, 256}, {512, 512}, {130, 130}, {67, 256}, {256, 67}};

// Densities cycled per scheduling cycle; the 0.0 and 1.0 extremes pin
// the empty- and full-matrix edge cases.
constexpr double kDensities[] = {0.0, 0.05, 0.2, 0.35, 0.6, 0.9, 1.0};

sched::RequestMatrix random_requests(util::Xoshiro256& rng,
                                     const Geometry& g, double density) {
    sched::RequestMatrix r(g.inputs, g.outputs);
    for (std::size_t i = 0; i < g.inputs; ++i) {
        auto& row = r.row(i);
        for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
            row.set_word(wi, rng.next_bernoulli_word(density));
        }
    }
    return r;
}

constexpr std::size_t kCycles = 250;

// Fewer cycles where a port count reaches 256: the per-bit twins cost
// O(n²) per cycle or more.
std::size_t cycles_for(const Geometry& g) {
    return std::max(g.inputs, g.outputs) >= 256 ? 40 : kCycles;
}

class SchedEquivalence : public ::testing::TestWithParam<std::string> {};

TEST_P(SchedEquivalence, BitIdenticalToReferenceOverRandomCycles) {
    const std::string name = GetParam();
    const sched::SchedulerConfig config{.iterations = 4, .seed = 7};
    for (const Geometry& g : kGeometries) {
        auto opt = core::make_scheduler(name, config);
        auto ref = oracle::make_twin(name, config);
        opt->reset(g.inputs, g.outputs);
        ref->reset(g.inputs, g.outputs);

        obs::ParanoidChecker checker(obs::ParanoidChecker::options_for(*opt));
        checker.reset(g.inputs, g.outputs);

        util::Xoshiro256 rng(g.inputs * 1009 + g.outputs);
        std::vector<std::uint32_t> lengths(g.inputs * g.outputs);
        sched::Matching m_opt, m_ref;
        for (std::size_t cycle = 0; cycle < cycles_for(g); ++cycle) {
            const double density =
                kDensities[cycle % (sizeof(kDensities) / sizeof(double))];
            const sched::RequestMatrix r = random_requests(rng, g, density);
            if (opt->wants_queue_lengths()) {
                // One snapshot for both sides; weights 1..4 make ties
                // common, so the rotated tie-break is checked too.
                for (auto& length : lengths) {
                    length = 1 + static_cast<std::uint32_t>(rng.next_below(4));
                }
                opt->observe_queue_lengths(lengths, g.outputs);
                ref->observe_queue_lengths(lengths, g.outputs);
            }
            opt->schedule(r, m_opt);
            ref->schedule(r, m_ref);
            ASSERT_EQ(m_opt, m_ref)
                << name << " diverges from its reference at cycle " << cycle
                << " (" << g.inputs << "x" << g.outputs << ", density "
                << density << ")\noptimized: " << m_opt.to_string()
                << "\nreference: " << m_ref.to_string();
            ASSERT_EQ(opt->last_iterations(), ref->last_iterations())
                << name << " iteration count diverges at cycle " << cycle;
            checker.check_cycle(r, m_opt);
            checker.check_iterations(opt->last_iterations());
        }
        EXPECT_EQ(checker.violation_count(), 0u);
        EXPECT_EQ(checker.cycles_checked(), cycles_for(g));
    }
}

// The registered schedulers with a twin: the lcf_* families (`lcf`
// true) or the baselines.
std::vector<std::string> names_with_twin(bool lcf) {
    std::vector<std::string> names;
    for (const auto& entry : core::scheduler_registry()) {
        if (entry.name.starts_with("lcf_") == lcf &&
            oracle::make_twin(entry.name) != nullptr) {
            names.emplace_back(entry.name);
        }
    }
    return names;
}

INSTANTIATE_TEST_SUITE_P(
    AllLcfSchedulers, SchedEquivalence,
    ::testing::ValuesIn(names_with_twin(true)),
    [](const auto& param_info) { return param_info.param; });

// Every baseline with a twin, rrm and ilqf included. 20x12 gives wfront
// diagonals whose rows share an output; the random dense matrices give
// fifo inputs with more than one (non-HOL) request.
INSTANTIATE_TEST_SUITE_P(
    Fig12Baselines, SchedEquivalence,
    ::testing::ValuesIn(names_with_twin(false)),
    [](const auto& param_info) { return param_info.param; });

// The twin table covers exactly the word-parallel rows: dropping one
// would silently drop its differential checks above.
TEST(SchedEquivalence, EveryOptimizedSchedulerHasATwin) {
    const std::set<std::string> expected = {
        "lcf_central", "lcf_central_rr", "lcf_central_rr_single",
        "lcf_central_rr_first", "lcf_dist", "lcf_dist_rr",
        "islip", "pim", "wfront", "fifo", "rrm", "ilqf"};
    std::set<std::string> with_twin;
    for (const auto& entry : core::scheduler_registry()) {
        const auto twin = oracle::make_twin(entry.name);
        if (twin == nullptr) continue;
        with_twin.emplace(entry.name);
        const std::string suffix =
            entry.name.starts_with("lcf_") ? "_reference" : "_oracle";
        EXPECT_EQ(twin->name(), std::string(entry.name) + suffix);
    }
    EXPECT_EQ(with_twin, expected);
}

// Twins are test support, not schedulers: no `*_reference` name reaches
// the factory, so no sweep or CLI can select the per-bit path.
TEST(SchedEquivalence, ReferenceNamesAreNotSchedulerNames) {
    const auto& listed = core::scheduler_names();
    ASSERT_EQ(listed.size(), core::scheduler_registry().size());
    for (std::size_t k = 0; k < listed.size(); ++k) {
        const std::string name(core::scheduler_registry()[k].name);
        EXPECT_EQ(listed[k], name);
        EXPECT_EQ(core::make_scheduler(name)->name(), name);
        const std::string twin = name + "_reference";
        EXPECT_FALSE(core::is_scheduler_name(twin)) << twin;
        EXPECT_THROW(core::make_scheduler(twin), std::invalid_argument)
            << twin;
    }
}

// One RequestMatrix kept current through set() by a VOQ arrival and
// departure process, the way SwitchSim drives it, instead of a fresh
// random matrix per cycle: consecutive matrices differ in a few bits, and
// the column view is never rebuilt. Every lcf_* scheduler and its twin
// schedule the same matrix each slot.
TEST(SchedEquivalence, PersistentMatrixReplay) {
    constexpr std::size_t kPorts = 256;
    constexpr std::size_t kSlots = 1000;
    const sched::SchedulerConfig config{.iterations = 4, .seed = 7};
    for (const double load : {0.5, 0.99}) {
        std::vector<std::unique_ptr<sched::Scheduler>> opt, ref;
        for (const std::string& name : names_with_twin(true)) {
            opt.push_back(core::make_scheduler(name, config));
            ref.push_back(oracle::make_twin(name, config));
            opt.back()->reset(kPorts, kPorts);
            ref.back()->reset(kPorts, kPorts);
        }
        sched::RequestMatrix requests(kPorts);
        requests.sync_columns();
        std::vector<std::uint32_t> queued(kPorts * kPorts, 0);
        util::Xoshiro256 rng(static_cast<std::uint64_t>(load * 1000));
        sched::Matching m_opt, m_ref, departures;
        for (std::size_t slot = 0; slot < kSlots; ++slot) {
            // Arrivals: Bernoulli(load) per input, uniform destination.
            for (std::size_t i = 0; i < kPorts; ++i) {
                if (!rng.next_bool(load)) continue;
                const std::size_t j = rng.next_below(kPorts);
                if (queued[i * kPorts + j]++ == 0) requests.set(i, j);
            }
            for (std::size_t s = 0; s < opt.size(); ++s) {
                opt[s]->schedule(requests, m_opt);
                ref[s]->schedule(requests, m_ref);
                ASSERT_EQ(m_opt, m_ref)
                    << opt[s]->name() << " diverges from its reference at slot "
                    << slot << " (load " << load << ")";
                ASSERT_EQ(opt[s]->last_iterations(), ref[s]->last_iterations())
                    << opt[s]->name() << " iteration count diverges at slot "
                    << slot << " (load " << load << ")";
                if (s == 0) departures = m_opt;
            }
            // Departures follow the first scheduler's matching.
            for (const std::size_t j : departures.matched_outputs().set_bits()) {
                const auto i = static_cast<std::size_t>(departures.input_of(j));
                if (--queued[i * kPorts + j] == 0) requests.set(i, j, false);
            }
        }
    }
}

// The two-stage precalculated path (§4.3) must also match: stage-1
// integrity filtering and the stage-2 LCF pass over the leftovers,
// including multicast fan-outs and deliberately conflicting claims.
class PrecalcEquivalence : public ::testing::TestWithParam<core::RrVariant> {};

TEST_P(PrecalcEquivalence, PrecalcPathMatchesReference) {
    const core::LcfCentralOptions options{.variant = GetParam()};
    // One, two (67) and four (256) input words in lcf_central's kernel.
    for (const std::size_t ports :
         {std::size_t{16}, std::size_t{67}, std::size_t{256}}) {
        core::LcfCentralScheduler opt(options);
        core::LcfCentralReferenceScheduler ref(options);
        opt.reset(ports, ports);
        ref.reset(ports, ports);
        // About 1.3 claims per input at every port count, so stage 2
        // still has ports left to schedule.
        const double claim = 0.08 * 16.0 / static_cast<double>(ports);

        util::Xoshiro256 rng(4242);
        core::MulticastResult r_opt, r_ref;
        for (std::size_t cycle = 0; cycle < cycles_for({ports, ports});
             ++cycle) {
            const double density =
                kDensities[cycle % (sizeof(kDensities) / sizeof(double))];
            const sched::RequestMatrix requests =
                random_requests(rng, {ports, ports}, density);
            core::PrecalcSchedule precalc(ports);
            for (std::size_t i = 0; i < ports; ++i) {
                for (std::size_t j = 0; j < ports; ++j) {
                    // Sparse claims; multiple claims per row exercise
                    // multicast, claims on one target from several inputs
                    // exercise the integrity check's drop path.
                    if (rng.next_bool(claim)) precalc.claim(i, j);
                }
            }
            opt.schedule_with_precalc(requests, precalc, r_opt);
            ref.schedule_with_precalc(requests, precalc, r_ref);
            ASSERT_EQ(r_opt.fanout, r_ref.fanout)
                << ports << " ports, cycle " << cycle;
            ASSERT_EQ(r_opt.unicast, r_ref.unicast)
                << ports << " ports, cycle " << cycle;
            ASSERT_EQ(r_opt.dropped, r_ref.dropped)
                << ports << " ports, cycle " << cycle;
            ASSERT_TRUE(r_opt.consistent())
                << ports << " ports, cycle " << cycle;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllRrVariants, PrecalcEquivalence,
    ::testing::Values(core::RrVariant::kNone, core::RrVariant::kSingle,
                      core::RrVariant::kInterleaved,
                      core::RrVariant::kDiagonalFirst),
    [](const auto& param_info) {
        switch (param_info.param) {
            case core::RrVariant::kNone: return "none";
            case core::RrVariant::kSingle: return "single";
            case core::RrVariant::kInterleaved: return "interleaved";
            case core::RrVariant::kDiagonalFirst: return "diagonal_first";
        }
        return "unknown";
    });

}  // namespace
}  // namespace lcf
