// Tests for the precalculated-schedule front end (§4.3, Figure 7):
// multicast admission, the integrity check (conflicting claims on one
// target), and the interaction with the regular LCF stage.

#include "core/lcf_central.hpp"
#include "core/precalc.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace lcf::core {
namespace {

using sched::make_requests;
using sched::RequestMatrix;

TEST(PrecalcSchedule, ClaimAndQuery) {
    PrecalcSchedule p(4);
    EXPECT_TRUE(p.empty());
    p.claim(3, 1);
    p.claim(3, 3);
    EXPECT_FALSE(p.empty());
    EXPECT_TRUE(p.claimed(3, 1));
    EXPECT_TRUE(p.claimed(3, 3));
    EXPECT_FALSE(p.claimed(3, 0));
    EXPECT_EQ(p.row(3).count(), 2u);
}

TEST(PrecalcSchedule, ClearWithdrawsEveryClaimAndKeepsGeometry) {
    PrecalcSchedule p(3, 70);  // rows span two 64-bit words
    p.claim(0, 1);
    p.claim(2, 69);
    p.claim(2, 64);
    p.clear();
    EXPECT_TRUE(p.empty());
    EXPECT_EQ(p.inputs(), 3u);
    EXPECT_EQ(p.outputs(), 70u);
    for (std::size_t i = 0; i < p.inputs(); ++i) {
        EXPECT_EQ(p.row(i).size(), 70u);
        EXPECT_TRUE(p.row(i).none()) << i;
    }
    p.claim(1, 69);  // still usable after clearing
    EXPECT_TRUE(p.claimed(1, 69));
    EXPECT_FALSE(p.claimed(2, 69));
}

TEST(Precalc, LongLivedSchedulerMatchesFreshInstancePerCycle) {
    // The Clint bulk channel keeps one scheduler, one request matrix,
    // one precalculated schedule and one result for a whole run. Every
    // cycle must still come out exactly as a fresh scheduler on the same
    // diagonal computes it: no stage-1 scratch (busy ports, claim
    // columns) and no result field may leak into the next cycle.
    // Claim density, conflicts, request density and geometry all vary.
    util::Xoshiro256 rng(2024);
    const LcfCentralOptions options{.variant = RrVariant::kInterleaved};
    LcfCentralScheduler reused(options);
    MulticastResult out;
    std::size_t n = 0;
    RequestMatrix requests;
    PrecalcSchedule pre;
    std::size_t dropped_total = 0;
    for (int cycle = 0; cycle < 500; ++cycle) {
        if (cycle % 100 == 0) {
            n = std::size_t{5} + rng.next_below(80);
            if (cycle == 0) reused.reset(n, n);
            requests = RequestMatrix(n);
            requests.sync_columns();
            pre = PrecalcSchedule(n);
        } else {
            requests.clear();
            pre.clear();
        }
        const double density = rng.next_double();
        // A third of the cycles carry no claims at all, so busy ports
        // left over from the previous cycle would show.
        const double claim_density =
            cycle % 3 == 0 ? 0.0 : 0.2 * rng.next_double();
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                if (rng.next_bool(density)) requests.set(i, j);
                if (rng.next_bool(claim_density)) pre.claim(i, j);
            }
        }

        LcfCentralScheduler fresh(options);
        fresh.reset(n, n);
        const auto [di, dj] = reused.diagonal();
        fresh.set_diagonal(di, dj);
        MulticastResult expected;
        fresh.schedule_with_precalc(requests, pre, expected);

        reused.schedule_with_precalc(requests, pre, out);
        ASSERT_EQ(out.fanout, expected.fanout) << "cycle " << cycle;
        ASSERT_EQ(out.unicast, expected.unicast) << "cycle " << cycle;
        ASSERT_EQ(out.dropped, expected.dropped) << "cycle " << cycle;
        dropped_total += out.dropped.size();
    }
    EXPECT_GT(dropped_total, 0u);  // conflicting claims were exercised
}

TEST(Precalc, Figure7MulticastConnection) {
    // Figure 7: a multicast connection precalculated from I3 to T1 and
    // T3; regular unicast requests from the other initiators compete for
    // the remaining targets T0 and T2.
    LcfCentralScheduler sched(LcfCentralOptions{.variant = RrVariant::kInterleaved});
    sched.reset(4, 4);

    const RequestMatrix requests =
        make_requests(4, {{0, 0}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 2}});
    PrecalcSchedule pre(4);
    pre.claim(3, 1);
    pre.claim(3, 3);

    MulticastResult out;
    sched.schedule_with_precalc(requests, pre, out);

    // The multicast fan-out is admitted intact...
    EXPECT_EQ(out.fanout[1], 3);
    EXPECT_EQ(out.fanout[3], 3);
    EXPECT_TRUE(out.dropped.empty());
    // ...and the LCF stage still fills T0 and T2 from the unicast
    // requests (both have multiple contenders).
    EXPECT_NE(out.fanout[0], sched::kUnmatched);
    EXPECT_NE(out.fanout[2], sched::kUnmatched);
    EXPECT_EQ(out.connections(), 4u);
    EXPECT_TRUE(out.consistent());
}

TEST(Precalc, IntegrityCheckDropsConflictingClaims) {
    // §4.3: "The integrity is violated if there are multiple requests
    // for a target. In such a case, one request is accepted and the
    // remaining ones are dropped."
    LcfCentralScheduler sched;
    sched.reset(4, 4);
    PrecalcSchedule pre(4);
    pre.claim(0, 2);
    pre.claim(1, 2);  // conflict on T2

    MulticastResult out;
    sched.schedule_with_precalc(RequestMatrix(4), pre, out);
    EXPECT_NE(out.fanout[2], sched::kUnmatched);
    ASSERT_EQ(out.dropped.size(), 1u);
    EXPECT_EQ(out.dropped[0].second, 2u);
    // Exactly one of the two claimants won.
    const auto winner = static_cast<std::size_t>(out.fanout[2]);
    EXPECT_TRUE(winner == 0 || winner == 1);
    EXPECT_NE(winner, out.dropped[0].first);
}

TEST(Precalc, PrecalcWinnerSkipsLcfStage) {
    // An input that won a precalculated connection transmits that packet
    // and must not also receive a unicast grant in the same slot.
    LcfCentralScheduler sched;
    sched.reset(4, 4);
    const RequestMatrix requests = make_requests(4, {{0, 0}, {0, 2}});
    PrecalcSchedule pre(4);
    pre.claim(0, 1);

    MulticastResult out;
    sched.schedule_with_precalc(requests, pre, out);
    EXPECT_EQ(out.fanout[1], 0);
    EXPECT_EQ(out.unicast.output_of(0), sched::kUnmatched);
    EXPECT_EQ(out.fanout[0], sched::kUnmatched);
    EXPECT_EQ(out.fanout[2], sched::kUnmatched);
}

TEST(Precalc, PrecalcTargetUnavailableToLcfStage) {
    // T1 is claimed by the precalculated schedule, so I0's unicast
    // request for T1 cannot be granted; its request for T3 still can.
    LcfCentralScheduler sched;
    sched.reset(4, 4);
    const RequestMatrix requests = make_requests(4, {{0, 1}, {0, 3}});
    PrecalcSchedule pre(4);
    pre.claim(2, 1);

    MulticastResult out;
    sched.schedule_with_precalc(requests, pre, out);
    EXPECT_EQ(out.fanout[1], 2);
    EXPECT_EQ(out.unicast.output_of(0), 3);
}

TEST(Precalc, EmptyPrecalcEqualsPlainSchedule) {
    const RequestMatrix requests =
        make_requests(4, {{0, 1}, {0, 2}, {1, 0}, {1, 2}, {1, 3}, {2, 0},
                          {2, 2}, {2, 3}, {3, 1}});
    LcfCentralScheduler a, b;
    a.reset(4, 4);
    b.reset(4, 4);

    sched::Matching plain;
    a.schedule(requests, plain);

    MulticastResult out;
    b.schedule_with_precalc(requests, PrecalcSchedule(4), out);

    for (std::size_t j = 0; j < 4; ++j) {
        EXPECT_EQ(out.fanout[j], plain.input_of(j)) << j;
    }
}

TEST(Precalc, MulticastResultConnectionCount) {
    MulticastResult r;
    r.fanout = {sched::kUnmatched, 2, 2, sched::kUnmatched};
    EXPECT_EQ(r.connections(), 2u);
}

}  // namespace
}  // namespace lcf::core
