// Tests for the distributed iterative LCF scheduler (§5): grant/accept
// priority rules, iterative augmentation, the round-robin position, and
// convergence behaviour. Figure 9's unambiguous statements are encoded
// directly (I0 wins T2 against higher-NRQ contenders; grants are
// accepted from the target with the lowest NGT).

#include "core/lcf_dist.hpp"

#include <gtest/gtest.h>

#include <set>

#include "oracles/lcf_reference.hpp"
#include "util/rng.hpp"

namespace lcf::core {
namespace {

using sched::make_requests;
using sched::Matching;
using sched::RequestMatrix;

TEST(LcfDist, GrantPrefersLowestNrq) {
    // Figure 9, request step of iteration 0: "T2 receives requests from
    // I0, I1, and I2. With one request, I0 has the highest priority and,
    // therefore, receives a grant."
    const RequestMatrix r = make_requests(
        4, {{0, 2},                          // I0: one request
            {1, 0}, {1, 2}, {1, 3},          // I1: three requests
            {2, 0}, {2, 2}, {2, 3}});        // I2: three requests
    LcfDistScheduler sched(LcfDistOptions{.iterations = 1});
    sched.reset(4, 4);
    Matching m;
    sched.schedule(r, m);
    EXPECT_EQ(m.output_of(0), 2);
}

TEST(LcfDist, AcceptPrefersLowestNgt) {
    // An initiator holding two grants accepts the target that received
    // fewer requests. I0 requests T0 and T1; T0 is also requested by two
    // other initiators (NGT 3) while T1 is requested by I0 alone
    // (NGT 1). Both targets grant I0 (it has the lowest NRQ everywhere),
    // and I0 must accept T1.
    const RequestMatrix r = make_requests(
        4, {{0, 0}, {0, 1},
            {1, 0}, {1, 2}, {1, 3},
            {2, 0}, {2, 2}, {2, 3}});
    LcfDistScheduler sched(LcfDistOptions{.iterations = 1});
    sched.reset(4, 4);
    Matching m;
    sched.schedule(r, m);
    EXPECT_EQ(m.output_of(0), 1);
}

TEST(LcfDist, Figure9TwoIterationExample) {
    // Figure 9 reconstructed from its annotations: the NRQ column reads
    // 1, 3, 3, 2 and the prose fixes the grant/accept decisions —
    // "T2 receives requests from I0, I1, and I2; with one request I0
    // has the highest priority" and "I3 receives grants from T1 and T3
    // and accepts the grant from T1 since it has the higher priority".
    // The unique request set consistent with all of that:
    //   I0:{T2}, I1:{T0,T2,T3}, I2:{T0,T2,T3}, I3:{T1,T3}.
    const RequestMatrix r = make_requests(
        4, {{0, 2}, {1, 0}, {1, 2}, {1, 3}, {2, 0}, {2, 2}, {2, 3}, {3, 1},
            {3, 3}});
    ASSERT_EQ(r.row_count(0), 1u);  // the published NRQ column
    ASSERT_EQ(r.row_count(1), 3u);
    ASSERT_EQ(r.row_count(2), 3u);
    ASSERT_EQ(r.row_count(3), 2u);

    // Iteration 0 alone: I0 wins T2, I3 accepts T1 (declining T3's
    // grant), and one of I1/I2 takes T0 — three matches.
    {
        LcfDistScheduler one(LcfDistOptions{.iterations = 1});
        one.reset(4, 4);
        Matching m;
        one.schedule(r, m);
        EXPECT_EQ(m.output_of(0), 2);
        EXPECT_EQ(m.output_of(3), 1);
        EXPECT_EQ(m.size(), 3u);
        EXPECT_EQ(m.output_of(3), 1) << "I3 must prefer NGT(T1)=1 over "
                                        "NGT(T3)=3";
    }
    // "Figure 9 gives an example of a schedule calculated ... in two
    // iterations": the second iteration matches the remaining initiator
    // with T3, completing a perfect schedule.
    {
        LcfDistScheduler two(LcfDistOptions{.iterations = 2});
        two.reset(4, 4);
        Matching m;
        two.schedule(r, m);
        EXPECT_EQ(m.size(), 4u);
        EXPECT_EQ(m.output_of(0), 2);
        EXPECT_EQ(m.output_of(3), 1);
        // I1 and I2 share T0 and T3 (the tie-break decides which way).
        const auto o1 = m.output_of(1);
        const auto o2 = m.output_of(2);
        EXPECT_TRUE((o1 == 0 && o2 == 3) || (o1 == 3 && o2 == 0));
    }
}

TEST(LcfDist, SecondIterationAugmentsTheMatching) {
    // With everything requesting everything, iteration 1 of an n-port
    // switch matches at least one pair; further iterations must extend,
    // never shrink, the matching.
    RequestMatrix full(4);
    for (std::size_t i = 0; i < 4; ++i) {
        for (std::size_t j = 0; j < 4; ++j) full.set(i, j);
    }
    std::size_t prev = 0;
    for (std::size_t iters = 1; iters <= 4; ++iters) {
        LcfDistScheduler sched(LcfDistOptions{.iterations = iters});
        sched.reset(4, 4);
        Matching m;
        sched.schedule(full, m);
        EXPECT_GE(m.size(), prev);
        prev = m.size();
    }
    EXPECT_EQ(prev, 4u);
}

TEST(LcfDist, IterateExtendsAPartialMatching) {
    const RequestMatrix r = make_requests(4, {{0, 0}, {0, 1}, {1, 0}});
    LcfDistScheduler sched;
    sched.reset(4, 4);
    Matching m(4);
    m.match(0, 0);  // pre-matched pair: iterations must respect it
    sched.iterate(r, 4, m);
    EXPECT_EQ(m.output_of(0), 0);
    EXPECT_EQ(m.size(), 1u);  // I1's only choice T0 is taken
}

// iterate() returns the number of iterations begun. The one that finds
// no grant counts too, so a call with nothing left to match returns 1,
// not 0. Each case runs the word-parallel core and its per-bit twin from
// the same partial matching and compares both the count and the result.
std::size_t iterate_like_reference(const RequestMatrix& r,
                                   std::size_t iterations, Matching& m) {
    LcfDistScheduler opt;
    LcfDistReferenceScheduler ref;
    opt.reset(r.inputs(), r.outputs());
    ref.reset(r.inputs(), r.outputs());
    Matching m_ref = m;
    const std::size_t executed = opt.iterate(r, iterations, m);
    EXPECT_EQ(executed, ref.iterate(r, iterations, m_ref));
    EXPECT_EQ(m, m_ref);
    return executed;
}

TEST(LcfDist, IterateCountsFigure9SingleSteps) {
    const RequestMatrix r = make_requests(
        4, {{0, 2}, {1, 0}, {1, 2}, {1, 3}, {2, 0}, {2, 2}, {2, 3}, {3, 1},
            {3, 3}});
    Matching m(4);
    EXPECT_EQ(iterate_like_reference(r, 1, m), 1u);  // iteration 0
    EXPECT_EQ(m.size(), 3u);
    EXPECT_EQ(iterate_like_reference(r, 1, m), 1u);  // iteration 1
    EXPECT_EQ(m.size(), 4u);
    EXPECT_EQ(iterate_like_reference(r, 1, m), 1u);  // nothing left
    EXPECT_EQ(m.size(), 4u);
    // The whole budget at once: two iterations that match, then one that
    // finds no grant and stops.
    Matching whole(4);
    EXPECT_EQ(iterate_like_reference(r, 4, whole), 3u);
    EXPECT_EQ(whole, m);
    Matching none(4);
    EXPECT_EQ(iterate_like_reference(r, 0, none), 0u);
    EXPECT_EQ(none.size(), 0u);
}

TEST(LcfDist, IterateCountsEmptyAndFullyMatchedSwitches) {
    Matching empty(0);
    EXPECT_EQ(iterate_like_reference(RequestMatrix(0), 4, empty), 1u);

    // Every input already matched, on a square switch and on one with
    // free outputs left over.
    for (const std::size_t outputs : {std::size_t{4}, std::size_t{6}}) {
        RequestMatrix full(4, outputs);
        for (std::size_t i = 0; i < 4; ++i) {
            for (std::size_t j = 0; j < outputs; ++j) full.set(i, j);
        }
        Matching m(4, outputs);
        for (std::size_t i = 0; i < 4; ++i) m.match(i, 3 - i);
        const Matching before = m;
        EXPECT_EQ(iterate_like_reference(full, 4, m), 1u) << outputs;
        EXPECT_EQ(m, before) << outputs;
    }
}

TEST(LcfDist, IterateMatchesReferenceFromRandomPartialMatchings) {
    util::Xoshiro256 rng(2024);
    for (const auto& [inputs, outputs] :
         {std::pair<std::size_t, std::size_t>{8, 8}, {64, 64}, {67, 67},
          {12, 20}, {20, 12}}) {
        LcfDistScheduler opt;
        LcfDistReferenceScheduler ref;
        opt.reset(inputs, outputs);
        ref.reset(inputs, outputs);
        Matching scheduled, m_opt, m_ref;
        for (int trial = 0; trial < 60; ++trial) {
            RequestMatrix r(inputs, outputs);
            const double density = 0.05 + 0.15 * (trial % 6);
            for (std::size_t i = 0; i < inputs; ++i) {
                for (std::size_t j = 0; j < outputs; ++j) {
                    if (rng.next_bool(density)) r.set(i, j);
                }
            }
            // A few pre-matched pairs, backed by a request or not, as a
            // round-robin stage or an earlier iterate() leaves them.
            m_opt.reset(inputs, outputs);
            for (std::size_t k = 0; k < 4; ++k) {
                const std::size_t i = rng.next_below(inputs);
                const std::size_t j = rng.next_below(outputs);
                if (!m_opt.input_matched(i) && !m_opt.output_matched(j)) {
                    m_opt.match(i, j);
                }
            }
            m_ref = m_opt;
            const std::size_t budget = 1 + static_cast<std::size_t>(trial % 4);
            ASSERT_EQ(opt.iterate(r, budget, m_opt),
                      ref.iterate(r, budget, m_ref))
                << inputs << "x" << outputs << ", trial " << trial;
            ASSERT_EQ(m_opt, m_ref)
                << inputs << "x" << outputs << ", trial " << trial;
            // Advance both tie-break chains by one cycle.
            opt.schedule(r, scheduled);
            ref.schedule(r, scheduled);
        }
    }
}

TEST(LcfDist, RoundRobinPositionPreMatches) {
    // lcf_dist_rr grants the rotating position before iterating. Place
    // requests so pure LCF would give T0 to I0; the RR position [I1, T0]
    // must override.
    const RequestMatrix r = make_requests(4, {{0, 0}, {1, 0}, {1, 1}});
    LcfDistScheduler sched(LcfDistOptions{.iterations = 4, .round_robin = true});
    sched.reset(4, 4);
    sched.set_rr_position(1, 0);
    Matching m;
    sched.schedule(r, m);
    EXPECT_EQ(m.input_of(0), 1);
}

TEST(LcfDist, RoundRobinPositionWalksAllMatrixPositions) {
    LcfDistScheduler sched(LcfDistOptions{.iterations = 1, .round_robin = true});
    sched.reset(4, 4);
    const RequestMatrix empty(4);
    Matching m;
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (int c = 0; c < 16; ++c) {
        seen.insert(sched.rr_position());
        sched.schedule(empty, m);
    }
    EXPECT_EQ(seen.size(), 16u);
}

TEST(LcfDist, ValidityOnRandomMatrices) {
    util::Xoshiro256 rng(321);
    for (const bool rr : {false, true}) {
        LcfDistScheduler sched(
            LcfDistOptions{.iterations = 4, .round_robin = rr});
        sched.reset(8, 8);
        Matching m;
        for (int trial = 0; trial < 500; ++trial) {
            RequestMatrix r(8);
            for (std::size_t i = 0; i < 8; ++i) {
                for (std::size_t j = 0; j < 8; ++j) {
                    if (rng.next_bool(0.35)) r.set(i, j);
                }
            }
            sched.schedule(r, m);
            EXPECT_TRUE(m.valid_for(r));
        }
    }
}

TEST(LcfDist, EnoughIterationsReachMaximality) {
    // One iteration matches at least one pair per connected component;
    // n iterations always reach a maximal matching (each iteration
    // matches at least one pair while any free-free request edge
    // remains).
    util::Xoshiro256 rng(55);
    LcfDistScheduler sched(LcfDistOptions{.iterations = 8});
    sched.reset(8, 8);
    Matching m;
    for (int trial = 0; trial < 300; ++trial) {
        RequestMatrix r(8);
        for (std::size_t i = 0; i < 8; ++i) {
            for (std::size_t j = 0; j < 8; ++j) {
                if (rng.next_bool(0.3)) r.set(i, j);
            }
        }
        sched.schedule(r, m);
        EXPECT_TRUE(m.maximal_for(r));
    }
}

TEST(LcfDist, FourIterationsUsuallySufficeAt16Ports) {
    // §5: "a small number of iterations is normally sufficient to find a
    // near-optimal schedule" — quantify: over random 16-port matrices,
    // 4 iterations must reach a maximal matching in the vast majority of
    // cases.
    util::Xoshiro256 rng(99);
    LcfDistScheduler four(LcfDistOptions{.iterations = 4});
    four.reset(16, 16);
    Matching m;
    int maximal = 0;
    constexpr int kTrials = 300;
    for (int trial = 0; trial < kTrials; ++trial) {
        RequestMatrix r(16);
        for (std::size_t i = 0; i < 16; ++i) {
            for (std::size_t j = 0; j < 16; ++j) {
                if (rng.next_bool(0.25)) r.set(i, j);
            }
        }
        four.schedule(r, m);
        if (m.maximal_for(r)) ++maximal;
    }
    EXPECT_GT(maximal, kTrials * 9 / 10);
}

TEST(LcfDist, EmptyAndSingleRequest) {
    LcfDistScheduler sched;
    sched.reset(4, 4);
    Matching m;
    sched.schedule(RequestMatrix(4), m);
    EXPECT_EQ(m.size(), 0u);
    sched.schedule(make_requests(4, {{2, 3}}), m);
    EXPECT_EQ(m.output_of(2), 3);
    EXPECT_EQ(m.size(), 1u);
}

TEST(LcfDist, NamesReflectConfiguration) {
    EXPECT_EQ(LcfDistScheduler(LcfDistOptions{.round_robin = false}).name(),
              "lcf_dist");
    EXPECT_EQ(LcfDistScheduler(LcfDistOptions{.round_robin = true}).name(),
              "lcf_dist_rr");
}

}  // namespace
}  // namespace lcf::core
