// Property suite run over EVERY scheduler in the library (parameterised
// gtest): universal invariants any correct switch scheduler must hold.
//
//  P1  validity        — every matched pair is backed by a request
//  P2  no spurious     — empty requests produce empty matchings
//  P3  conflict-free   — no input or output appears twice (checked via
//                        the Matching invariant inside valid_for)
//  P4  single request  — a lone request is always granted
//  P5  permutation     — a permutation request set is fully granted
//  P6  reset determinism — reset() returns the scheduler to a state that
//                        reproduces the same schedule sequence
//  P7  half-optimal    — matchings reach at least half of maximum size
//                        (exact for the maximal schedulers; iterative
//                        ones are exercised with enough iterations)
//  P8  paranoid-clean  — every cycle of a traffic-driven run passes the
//                        ParanoidChecker (validity, exact bookkeeping,
//                        §3 fairness window, iteration budgets), on
//                        square and rectangular geometries

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "obs/paranoid_checker.hpp"
#include "sched/maxsize.hpp"
#include "sched/scheduler.hpp"
#include "traffic/traffic.hpp"
#include "util/rng.hpp"

namespace lcf {
namespace {

using sched::Matching;
using sched::RequestMatrix;

class AllSchedulers : public ::testing::TestWithParam<std::string> {
protected:
    static std::unique_ptr<sched::Scheduler> make(std::size_t ports) {
        // Enough iterations that even the iterative matchers reach
        // maximality on the sizes tested here.
        auto s = core::make_scheduler(
            GetParam(), sched::SchedulerConfig{.iterations = 8, .seed = 17});
        s->reset(ports, ports);
        return s;
    }

    static RequestMatrix random_matrix(util::Xoshiro256& rng, std::size_t n,
                                       double density) {
        RequestMatrix r(n);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (rng.next_bool(density)) r.set(i, j);
            }
        }
        return r;
    }
};

TEST_P(AllSchedulers, ValidityOnRandomMatrices) {
    auto s = make(8);
    util::Xoshiro256 rng(5);
    Matching m;
    for (int trial = 0; trial < 200; ++trial) {
        const auto r = random_matrix(rng, 8, 0.35);
        s->schedule(r, m);
        ASSERT_TRUE(m.valid_for(r)) << s->name() << " trial " << trial;
    }
}

TEST_P(AllSchedulers, EmptyRequestsEmptyMatching) {
    auto s = make(8);
    Matching m;
    for (int slot = 0; slot < 10; ++slot) {
        s->schedule(RequestMatrix(8), m);
        EXPECT_EQ(m.size(), 0u);
    }
}

TEST_P(AllSchedulers, SingleRequestAlwaysGranted) {
    auto s = make(8);
    Matching m;
    for (std::size_t i = 0; i < 8; ++i) {
        for (std::size_t j = 0; j < 8; ++j) {
            RequestMatrix r(8);
            r.set(i, j);
            s->schedule(r, m);
            EXPECT_EQ(m.output_of(i), static_cast<std::int32_t>(j))
                << s->name() << " (" << i << "," << j << ")";
            EXPECT_EQ(m.size(), 1u);
        }
    }
}

TEST_P(AllSchedulers, PermutationFullyGranted) {
    if (GetParam() == "fifo") {
        // FIFO's request matrices carry at most one bit per row by
        // construction; a permutation is exactly such a matrix, so it is
        // covered, not skipped.
    }
    auto s = make(8);
    Matching m;
    for (std::size_t shift = 0; shift < 8; ++shift) {
        RequestMatrix r(8);
        for (std::size_t i = 0; i < 8; ++i) r.set(i, (i + shift) % 8);
        s->schedule(r, m);
        EXPECT_EQ(m.size(), 8u) << s->name() << " shift " << shift;
    }
}

TEST_P(AllSchedulers, ResetReproducesScheduleSequence) {
    util::Xoshiro256 rng(6);
    std::vector<RequestMatrix> inputs;
    for (int k = 0; k < 20; ++k) inputs.push_back(random_matrix(rng, 6, 0.4));

    auto s = make(6);
    std::vector<Matching> first;
    Matching m;
    for (const auto& r : inputs) {
        s->schedule(r, m);
        first.push_back(m);
    }
    s->reset(6, 6);
    for (std::size_t k = 0; k < inputs.size(); ++k) {
        s->schedule(inputs[k], m);
        EXPECT_EQ(m, first[k]) << s->name() << " slot " << k;
    }
}

TEST_P(AllSchedulers, AtLeastHalfOfMaximum) {
    if (GetParam() == "fifo") {
        GTEST_SKIP() << "fifo sees only head-of-line requests";
    }
    auto s = make(8);
    util::Xoshiro256 rng(7);
    Matching m;
    for (int trial = 0; trial < 200; ++trial) {
        const auto r = random_matrix(rng, 8, 0.3);
        s->schedule(r, m);
        const auto opt = sched::MaxSizeScheduler::maximum_matching_size(r);
        EXPECT_GE(2 * m.size(), opt) << s->name();
    }
}

TEST_P(AllSchedulers, HandlesFullLoadWithoutConflicts) {
    auto s = make(16);
    RequestMatrix full(16);
    for (std::size_t i = 0; i < 16; ++i) {
        for (std::size_t j = 0; j < 16; ++j) full.set(i, j);
    }
    Matching m;
    for (int slot = 0; slot < 50; ++slot) {
        s->schedule(full, m);
        EXPECT_TRUE(m.valid_for(full));
        EXPECT_GE(m.size(), 1u);
    }
}

TEST_P(AllSchedulers, NameMatchesFactoryKey) {
    auto s = make(4);
    EXPECT_EQ(s->name(), GetParam());
}

TEST_P(AllSchedulers, ParanoidCleanUnderTrafficDrivenBacklog) {
    // Every scheduler, driven by a simulated VOQ backlog fed from real
    // traffic generators, must satisfy the ParanoidChecker's invariants
    // on every single cycle: valid partial permutation, every grant
    // backed by a request, exact NRQ/NGT bookkeeping, the §3 fairness
    // window for the rotating-diagonal variants, and the iteration
    // budget for the iterative matchers.
    constexpr std::size_t kPorts = 8;
    constexpr std::size_t kCyclesPerCombo = 1200;
    constexpr std::size_t kBacklogCap = 64;

    for (const auto* traffic_name : {"uniform", "bursty", "hotspot"}) {
        for (const double load : {0.5, 0.9, 1.0}) {
            auto s = make(kPorts);
            obs::ParanoidChecker checker(obs::ParanoidChecker::options_for(*s));
            checker.reset(kPorts, kPorts);
            auto gen = traffic::make_traffic(traffic_name, load);
            gen->reset(kPorts, kPorts, 99);

            std::vector<std::uint32_t> backlog(kPorts * kPorts, 0);
            RequestMatrix r(kPorts);
            Matching m;
            for (std::size_t cycle = 0; cycle < kCyclesPerCombo; ++cycle) {
                for (std::size_t i = 0; i < kPorts; ++i) {
                    const std::int32_t dst = gen->arrival(i, cycle);
                    if (dst == traffic::kNoArrival) continue;
                    auto& q = backlog[i * kPorts +
                                      static_cast<std::size_t>(dst)];
                    if (q < kBacklogCap) ++q;
                }
                r.clear();
                for (std::size_t i = 0; i < kPorts; ++i) {
                    for (std::size_t j = 0; j < kPorts; ++j) {
                        if (backlog[i * kPorts + j] > 0) r.set(i, j);
                    }
                }
                if (s->wants_queue_lengths()) {
                    s->observe_queue_lengths(backlog, kPorts);
                }
                s->schedule(r, m);
                ASSERT_NO_THROW(checker.check_cycle(r, m))
                    << s->name() << " on " << traffic_name << " at load "
                    << load << ", cycle " << cycle;
                ASSERT_NO_THROW(checker.check_iterations(s->last_iterations()))
                    << s->name() << " on " << traffic_name;
                for (std::size_t j = 0; j < kPorts; ++j) {
                    const std::int32_t i = m.input_of(j);
                    if (i != sched::kUnmatched) {
                        --backlog[static_cast<std::size_t>(i) * kPorts + j];
                    }
                }
            }
            EXPECT_EQ(checker.cycles_checked(), kCyclesPerCombo);
            EXPECT_EQ(checker.violation_count(), 0u);
        }
    }
}

TEST(ParanoidProperties, CleanOnRectangularGeometries) {
    // The invariants hold off the square diagonal too: concentrators
    // (6x10) and expanders (10x6) under random request matrices.
    // wfront is square-only by construction and is exercised above.
    util::Xoshiro256 rng(2024);
    for (const auto& [n_in, n_out] :
         {std::pair<std::size_t, std::size_t>{6, 10}, {10, 6}}) {
        for (const std::string& name : core::scheduler_names()) {
            if (name == "wfront") continue;  // square-only by construction
            auto s = core::make_scheduler(
                name, sched::SchedulerConfig{.iterations = 8, .seed = 11});
            s->reset(n_in, n_out);
            obs::ParanoidChecker checker(obs::ParanoidChecker::options_for(*s));
            checker.reset(n_in, n_out);
            Matching m;
            std::vector<std::uint32_t> lengths(n_in * n_out, 0);
            for (int trial = 0; trial < 400; ++trial) {
                RequestMatrix r(n_in, n_out);
                for (std::size_t i = 0; i < n_in; ++i) {
                    for (std::size_t j = 0; j < n_out; ++j) {
                        const bool bit = rng.next_bool(0.4);
                        if (bit) r.set(i, j);
                        lengths[i * n_out + j] = bit ? 1 : 0;
                    }
                }
                if (s->wants_queue_lengths()) {
                    s->observe_queue_lengths(lengths, n_out);
                }
                s->schedule(r, m);
                ASSERT_NO_THROW(checker.check_cycle(r, m))
                    << name << " " << n_in << "x" << n_out << " trial "
                    << trial;
                ASSERT_NO_THROW(checker.check_iterations(s->last_iterations()))
                    << name;
            }
            EXPECT_EQ(checker.violation_count(), 0u) << name;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Library, AllSchedulers,
    ::testing::ValuesIn(core::scheduler_names()),
    [](const ::testing::TestParamInfo<std::string>& param_info) {
        return param_info.param;
    });

TEST(Factory, RejectsUnknownNames) {
    EXPECT_THROW(core::make_scheduler("bogus"), std::invalid_argument);
}

TEST(Factory, NameListsAreConsistent) {
    for (const auto& name : core::scheduler_names()) {
        EXPECT_TRUE(core::is_scheduler_name(name)) << name;
        EXPECT_NO_THROW(core::make_scheduler(name));
    }
    EXPECT_FALSE(core::is_scheduler_name("outbuf"));
    // Figure 12 has nine configurations, in legend order: the first
    // eight registry rows, then outbuf.
    EXPECT_EQ(core::figure12_names(),
              (std::vector<std::string>{"lcf_central", "lcf_central_rr",
                                        "lcf_dist_rr", "lcf_dist", "pim",
                                        "islip", "wfront", "fifo",
                                        "outbuf"}));
}

}  // namespace
}  // namespace lcf
