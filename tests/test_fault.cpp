// Tests for the deterministic fault-injection layer: plan validation,
// injector semantics (link down, loss, truncation, bit-error epoch
// composition, crash/restart tracking, determinism), the SeqTracker the
// recovery paths dedupe with, fault behavior of the bulk/quick channels
// and the switch simulator — and golden-equivalence pins proving that an
// empty plan leaves every simulation bit-identical to the pre-fault-layer
// build.

#include "fault/fault_injector.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "clint/bulk_channel.hpp"
#include "clint/clint_sim.hpp"
#include "clint/quick_channel.hpp"
#include "clint/seq_tracker.hpp"
#include "core/factory.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/bernoulli.hpp"

namespace lcf::fault {
namespace {

TEST(FaultPlan, EmptyPlanIsEmpty) {
    FaultPlan plan;
    EXPECT_TRUE(plan.empty());
    plan.add_scheduler_stall(10, 20);
    EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, ValidateRejectsMalformedEntries) {
    {
        FaultPlan p;
        p.add_bit_error_epoch({LinkKind::kData, kAllLinks}, 0, 100, 1.5);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.add_packet_loss({LinkKind::kAck, 2}, 0, 100, -0.1);
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.add_link_down({LinkKind::kUplink, 0}, 50, 10);  // end < begin
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.add_host_crash(3, 100, 50);  // restart before crash
        EXPECT_THROW(p.validate(), std::invalid_argument);
    }
    {
        FaultPlan p;
        p.add_scheduler_stall(5, 5)
            .add_bit_error_epoch({LinkKind::kData, 1}, 0, kForever, 0.01)
            .add_packet_loss({LinkKind::kData, kAllLinks}, 0, 10, 0.5, 0.5);
        EXPECT_NO_THROW(p.validate());
    }
    EXPECT_THROW(FaultInjector(FaultPlan{}.add_host_crash(0, 9, 3)),
                 std::invalid_argument);
}

TEST(FaultInjector, LinkDownAbsorbsOnlySelectedLinkAndInterval) {
    FaultPlan plan;
    plan.add_link_down({LinkKind::kUplink, 1}, 10, 20);
    FaultInjector inj(plan);
    inj.reset(4);
    EXPECT_TRUE(inj.link_up(LinkKind::kUplink, 1, 9));
    EXPECT_FALSE(inj.link_up(LinkKind::kUplink, 1, 10));
    EXPECT_FALSE(inj.link_up(LinkKind::kUplink, 1, 19));
    EXPECT_TRUE(inj.link_up(LinkKind::kUplink, 1, 20));  // half-open
    EXPECT_TRUE(inj.link_up(LinkKind::kUplink, 0, 15));  // other index
    EXPECT_TRUE(inj.link_up(LinkKind::kDownlink, 1, 15));  // other kind

    std::vector<std::uint8_t> wire{1, 2, 3};
    EXPECT_FALSE(inj.transmit(LinkKind::kUplink, 1, 15, wire));
    EXPECT_EQ(inj.counters().packets_dropped, 1u);
    EXPECT_TRUE(inj.transmit(LinkKind::kUplink, 1, 25, wire));
    EXPECT_EQ(wire, (std::vector<std::uint8_t>{1, 2, 3}));
}

TEST(FaultInjector, CertainLossAbsorbsEveryPacket) {
    FaultPlan plan;
    plan.add_packet_loss({LinkKind::kData, kAllLinks}, 0, kForever, 1.0);
    FaultInjector inj(plan);
    inj.reset(2);
    std::vector<std::uint8_t> wire{0xAB};
    for (std::uint64_t s = 0; s < 50; ++s) {
        EXPECT_FALSE(inj.transmit(LinkKind::kData, s % 2, s, wire));
        EXPECT_TRUE(inj.packet_lost(LinkKind::kData, s % 2, s));
    }
    EXPECT_EQ(inj.counters().packets_dropped, 100u);
}

TEST(FaultInjector, CertainTruncationShortensStrictly) {
    FaultPlan plan;
    plan.add_packet_loss({LinkKind::kDownlink, kAllLinks}, 0, kForever, 0.0,
                         1.0);
    FaultInjector inj(plan);
    inj.reset(1);
    for (int i = 0; i < 64; ++i) {
        std::vector<std::uint8_t> wire(11, 0xFF);
        EXPECT_TRUE(inj.transmit(LinkKind::kDownlink, 0, 5, wire));
        EXPECT_LT(wire.size(), 11u);  // strictly shorter, possibly empty
    }
    EXPECT_EQ(inj.counters().packets_truncated, 64u);
}

TEST(FaultInjector, OverlappingBitErrorEpochsCompose) {
    FaultPlan plan;
    plan.add_bit_error_epoch({LinkKind::kAck, 0}, 0, 100, 0.5)
        .add_bit_error_epoch({LinkKind::kAck, 0}, 50, 100, 0.5);
    FaultInjector inj(plan);
    inj.reset(1);
    EXPECT_DOUBLE_EQ(inj.extra_ber(LinkKind::kAck, 0, 10), 0.5);
    // Independent epochs: 1 - (1-0.5)(1-0.5).
    EXPECT_DOUBLE_EQ(inj.extra_ber(LinkKind::kAck, 0, 75), 0.75);
    EXPECT_DOUBLE_EQ(inj.extra_ber(LinkKind::kAck, 0, 100), 0.0);
    EXPECT_DOUBLE_EQ(inj.extra_ber(LinkKind::kData, 0, 10), 0.0);
}

TEST(FaultInjector, EpochBitErrorsFlipWireBits) {
    FaultPlan plan;
    plan.add_bit_error_epoch({LinkKind::kData, 0}, 0, kForever, 1.0);
    FaultInjector inj(plan);
    inj.reset(1);
    std::vector<std::uint8_t> wire{0x0F, 0xF0};
    EXPECT_TRUE(inj.transmit(LinkKind::kData, 0, 0, wire));
    EXPECT_EQ(wire, (std::vector<std::uint8_t>{0xF0, 0x0F}));
    EXPECT_EQ(inj.counters().bits_flipped, 16u);
    EXPECT_EQ(inj.counters().packets_corrupted, 1u);
}

TEST(FaultInjector, CrashRestartAndStallTracking) {
    FaultPlan plan;
    plan.add_host_crash(2, 10, 30).add_host_crash(3, 20);  // 3 never restarts
    plan.add_scheduler_stall(5, 8);
    FaultInjector inj(plan);
    inj.reset(4);
    EXPECT_TRUE(inj.host_up(2, 9));
    EXPECT_FALSE(inj.host_up(2, 10));
    EXPECT_FALSE(inj.host_up(2, 29));
    EXPECT_TRUE(inj.host_up(2, 30));
    EXPECT_FALSE(inj.host_up(3, 1000000));
    EXPECT_TRUE(inj.scheduler_stalled(5));
    EXPECT_TRUE(inj.scheduler_stalled(7));
    EXPECT_FALSE(inj.scheduler_stalled(8));
    for (std::uint64_t s = 0; s < 40; ++s) inj.begin_slot(s);
    EXPECT_EQ(inj.counters().crashes, 2u);
    EXPECT_EQ(inj.counters().restarts, 1u);
    EXPECT_EQ(inj.counters().stalled_slots, 3u);
}

TEST(FaultInjector, SamePlanReplaysIdentically) {
    FaultPlan plan;
    plan.seed = 99;
    plan.add_packet_loss({LinkKind::kData, kAllLinks}, 0, kForever, 0.3, 0.3)
        .add_bit_error_epoch({LinkKind::kData, kAllLinks}, 0, kForever, 0.01);
    FaultInjector a(plan);
    FaultInjector b(plan);
    a.reset(4);
    b.reset(4);
    for (std::uint64_t s = 0; s < 500; ++s) {
        std::vector<std::uint8_t> wa(32, 0x5A);
        std::vector<std::uint8_t> wb(32, 0x5A);
        const bool ra = a.transmit(LinkKind::kData, s % 4, s, wa);
        const bool rb = b.transmit(LinkKind::kData, s % 4, s, wb);
        ASSERT_EQ(ra, rb) << "slot " << s;
        ASSERT_EQ(wa, wb) << "slot " << s;
    }
    EXPECT_EQ(a.counters(), b.counters());
}

TEST(FaultCounters, MergeSumsFieldwise) {
    FaultCounters a{1, 2, 3, 4, 5, 6, 7};
    const FaultCounters b{10, 20, 30, 40, 50, 60, 70};
    a.merge(b);
    EXPECT_EQ(a, (FaultCounters{11, 22, 33, 44, 55, 66, 77}));
}

}  // namespace
}  // namespace lcf::fault

namespace lcf::clint {
namespace {

TEST(SeqTracker, InOrderDeliveriesAndDuplicates) {
    SeqTracker t(2);
    EXPECT_TRUE(t.deliver(0, 0));
    EXPECT_TRUE(t.deliver(0, 1));
    EXPECT_FALSE(t.deliver(0, 0));  // duplicate below base
    EXPECT_FALSE(t.deliver(0, 1));
    EXPECT_TRUE(t.deliver(1, 0));  // flows are independent
    EXPECT_EQ(t.pending(), 0u);
}

TEST(SeqTracker, ReorderingClosesHolesAndBoundsMemory) {
    SeqTracker t(1);
    EXPECT_TRUE(t.deliver(0, 2));
    EXPECT_TRUE(t.deliver(0, 1));
    EXPECT_EQ(t.pending(), 2u);  // base still 0; {1,2} held ahead
    EXPECT_TRUE(t.deliver(0, 0));
    EXPECT_EQ(t.pending(), 0u);  // base advanced through the run
    EXPECT_FALSE(t.deliver(0, 2));
    EXPECT_TRUE(t.deliver(0, 3));
}

TEST(SeqTracker, SkipAccountsDestroyedPackets) {
    SeqTracker t(1);
    t.skip(0, 0);  // destroyed before delivery
    EXPECT_TRUE(t.deliver(0, 1));
    EXPECT_FALSE(t.deliver(0, 0));  // late copy of the destroyed packet
    EXPECT_EQ(t.pending(), 0u);
}

// ---------------------------------------------------------------------
// Golden equivalence: with an empty fault plan (and the same configs the
// seed repository shipped), every simulation must reproduce the exact
// pre-fault-layer numbers. These values were captured from the commit
// preceding the fault layer; any drift means the refactor changed
// baseline behavior.
// ---------------------------------------------------------------------

TEST(FaultGolden, BulkChannelBitIdenticalWithEmptyPlan) {
    BulkChannelConfig c;
    c.hosts = 8;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 1234;
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.7));
    sim.enqueue_multicast(2, 0b10110101);
    const auto r = sim.run();
    EXPECT_FALSE(sim.fault_injector().has_value());
    EXPECT_EQ(r.generated, 27884u);
    EXPECT_EQ(r.delivered_unique, 27865u);
    EXPECT_EQ(r.duplicate_deliveries, 0u);
    EXPECT_EQ(r.dropped_voq, 0u);
    EXPECT_EQ(r.retransmissions, 0u);
    EXPECT_EQ(r.multicast_copies, 5u);
    EXPECT_EQ(r.sched.grants, 27871u);
    EXPECT_EQ(sim.buffered_total(), 19u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 3.3970406413273269);
    EXPECT_DOUBLE_EQ(r.max_delay, 32.0);
    EXPECT_DOUBLE_EQ(r.goodput, 0.69672222222222224);
    EXPECT_EQ(r.faults, fault::FaultCounters{});
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(FaultGolden, QuickChannelBitIdenticalWithEmptyPlan) {
    QuickChannelConfig c;
    c.hosts = 8;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 77;
    QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.3));
    const auto r = sim.run();
    EXPECT_FALSE(sim.fault_injector().has_value());
    EXPECT_EQ(r.generated, 12066u);
    EXPECT_EQ(r.delivered_unique, 12065u);
    EXPECT_EQ(r.duplicate_deliveries, 0u);
    EXPECT_EQ(r.collisions, 2067u);
    EXPECT_EQ(r.retransmissions, 2066u);
    EXPECT_EQ(r.abandoned, 0u);
    EXPECT_EQ(r.dropped_queue, 0u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 1.6726366322008923);
    EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.99991712249295539);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(FaultGolden, IntegratedClintBitIdenticalWithEmptyPlans) {
    ClintConfig c;
    c.hosts = 16;
    c.slots = 3000;
    c.warmup_slots = 300;
    c.seed = 9;
    c.integrated = true;
    c.bulk_load = 0.8;
    c.quick_load = 0.15;
    const auto r = run_clint(c);
    EXPECT_EQ(r.bulk.delivered_unique, 38392u);
    EXPECT_EQ(r.quick.delivered_unique, 4603u);
    EXPECT_EQ(r.quick_control_sent, 38392u);
    EXPECT_EQ(r.quick_control_preemptions, 36072u);
    EXPECT_EQ(r.quick.collisions, 6519u);
    EXPECT_DOUBLE_EQ(r.quick.mean_delay, 525.71346405228769);
}

TEST(FaultGolden, SwitchSimBitIdenticalWithEmptyPlan) {
    sim::SimConfig c;
    c.ports = 16;
    c.slots = 8000;
    c.warmup_slots = 800;
    c.seed = 4242;
    c.paranoid = true;
    sim::SwitchSim s(c, core::make_scheduler("lcf_central_rr"),
                     std::make_unique<traffic::BernoulliUniform>(0.9));
    const auto r = s.run();
    EXPECT_FALSE(s.fault_injector().has_value());
    EXPECT_EQ(r.generated, 115181u);
    EXPECT_EQ(r.delivered, 115080u);
    EXPECT_EQ(r.dropped, 0u);
    EXPECT_EQ(r.sched.grants, 115080u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
    EXPECT_EQ(r.sched.stalled_cycles, 0u);
    EXPECT_DOUBLE_EQ(r.mean_delay, 7.4237078662535305);
    EXPECT_DOUBLE_EQ(r.throughput, 0.89973958333333337);
}

// ---------------------------------------------------------------------
// Golden pins for the Clint slot paths that reuse per-slot state (the
// bulk channel's scheduling stage, the link, the quick channel's
// arbitration). Recorded from the build before that state was made
// persistent; every counter is pinned.
// ---------------------------------------------------------------------

ClintResult golden_integrated_run() {
    ClintConfig c;
    c.hosts = 16;
    c.slots = 4000;
    c.warmup_slots = 400;
    c.seed = 11;
    c.integrated = true;
    c.bulk_load = 0.8;
    c.quick_load = 0.1;
    c.bit_error_rate = 1e-5;
    return run_clint(c);
}

struct BulkStormOutcome {
    BulkChannelResult result;
    std::uint16_t fenced_during = 0;
    std::uint16_t fenced_after = 0;
    std::size_t buffered = 0;
    BulkAccounting accounting;
};

BulkStormOutcome golden_bulk_storm_run() {
    BulkChannelConfig c;
    c.hosts = 8;
    c.slots = 4000;
    c.warmup_slots = 400;
    c.seed = 606;
    c.bit_error_rate = 1e-5;
    c.paranoid = true;
    c.fault_plan.add_host_crash(5, 1000, 1800)
        .add_scheduler_stall(2000, 2060)
        .add_packet_loss({fault::LinkKind::kUplink, fault::kAllLinks}, 0,
                         fault::kForever, 0.0, 0.01)
        .add_packet_loss({fault::LinkKind::kDownlink, 2}, 500, 3000, 0.05);
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.6));
    BulkStormOutcome out;
    while (sim.current_slot() < c.slots) {
        const std::uint64_t t = sim.current_slot();
        if (t % 400 == 0) {
            // Hosts 0 and 1 both claim target 3: stage 1 admits one
            // claim and drops the other every time both are advertised.
            sim.enqueue_multicast(0, 0b00001100);
            sim.enqueue_multicast(1, 0b00001010);
        }
        if (t == 2500) sim.set_bulk_enable_report(3, 0xFFBF);  // fence 6
        if (t == 3000) sim.set_bulk_enable_report(3, 0xFFFF);
        sim.step();
        if (t == 2800) out.fenced_during = sim.fenced_mask();
    }
    out.fenced_after = sim.fenced_mask();
    out.result = sim.result();
    out.buffered = sim.buffered_total();
    out.accounting = sim.accounting();
    return out;
}

struct QuickStormOutcome {
    QuickChannelResult result;
    std::uint64_t control_sent = 0;
    std::uint64_t control_preemptions = 0;
    std::uint64_t control_lost = 0;
    QuickAccounting accounting;
};

QuickStormOutcome golden_quick_100_hosts_run() {
    QuickChannelConfig c;
    c.hosts = 100;  // two 64-bit words of hosts; the pointer wraps
    c.slots = 3000;
    c.warmup_slots = 300;
    c.seed = 4100;
    c.bit_error_rate = 1e-5;
    c.fault_plan.add_host_crash(70, 800, 1500).add_host_crash(3, 1200, 2000);
    QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    while (sim.current_slot() < c.slots) {
        const std::uint64_t t = sim.current_slot();
        if (t % 5 == 0) sim.inject_control(t % 100, (t * 37) % 100);
        sim.step();
    }
    QuickStormOutcome out;
    out.result = sim.result();
    out.control_sent = sim.control_sent();
    out.control_preemptions = sim.control_preemptions();
    out.control_lost = sim.control_lost();
    out.accounting = sim.accounting();
    return out;
}

// The perfbench clint-integrated-ber settings, shortened.
TEST(FaultGolden, IntegratedClintBenchmarkSettings) {
    const ClintResult r = golden_integrated_run();
    EXPECT_DOUBLE_EQ(r.bulk.mean_delay, 18.183608267588085);
    EXPECT_DOUBLE_EQ(r.bulk.max_delay, 346.0);
    EXPECT_EQ(r.bulk.p50_delay, 9u);
    EXPECT_EQ(r.bulk.p99_delay, 122u);
    EXPECT_EQ(r.bulk.generated, 51322u);
    EXPECT_EQ(r.bulk.delivered_unique, 51124u);
    EXPECT_EQ(r.bulk.duplicate_deliveries, 50u);
    EXPECT_EQ(r.bulk.dropped_voq, 0u);
    EXPECT_EQ(r.bulk.config_crc_errors, 65u);
    EXPECT_EQ(r.bulk.grant_crc_errors, 22u);
    EXPECT_EQ(r.bulk.configs_lost, 0u);
    EXPECT_EQ(r.bulk.grants_lost, 0u);
    EXPECT_EQ(r.bulk.data_corruptions, 9054u);
    EXPECT_EQ(r.bulk.ack_losses, 50u);
    EXPECT_EQ(r.bulk.retransmissions, 9094u);
    EXPECT_EQ(r.bulk.abandoned, 0u);
    EXPECT_EQ(r.bulk.crash_lost, 0u);
    EXPECT_EQ(r.bulk.recovered, 7607u);
    EXPECT_DOUBLE_EQ(r.bulk.mean_recovery_delay, 14.373077428684116);
    EXPECT_EQ(r.bulk.multicast_copies, 0u);
    EXPECT_EQ(r.bulk.multicast_lost, 0u);
    EXPECT_DOUBLE_EQ(r.bulk.goodput, 0.80166666666666664);
    EXPECT_EQ(r.bulk.sched,
              (obs::SchedCounters{.cycles = 4000, .requests = 404091,
                  .grants = 60265, .empty_cycles = 0, .max_matching = 16,
                  .max_starvation_age = 0, .paranoid_violations = 0,
                  .stalled_cycles = 0}));
    EXPECT_DOUBLE_EQ(r.quick.mean_delay, 77.881780500990942);
    EXPECT_DOUBLE_EQ(r.quick.max_delay, 372.0);
    EXPECT_EQ(r.quick.generated, 6358u);
    EXPECT_EQ(r.quick.delivered_unique, 6212u);
    EXPECT_EQ(r.quick.duplicate_deliveries, 4u);
    EXPECT_EQ(r.quick.dropped_queue, 0u);
    EXPECT_EQ(r.quick.collisions, 7867u);
    EXPECT_EQ(r.quick.corruptions, 78u);
    EXPECT_EQ(r.quick.fault_losses, 0u);
    EXPECT_EQ(r.quick.retransmissions, 3999u);
    EXPECT_EQ(r.quick.abandoned, 0u);
    EXPECT_EQ(r.quick.abandoned_delivered, 0u);
    EXPECT_EQ(r.quick.crash_lost, 0u);
    EXPECT_DOUBLE_EQ(r.quick.delivery_ratio, 0.97703680402642346);
    EXPECT_EQ(r.quick_control_sent, 51174u);
    EXPECT_EQ(r.quick_control_preemptions, 42556u);
}

// Crash, stall, uplink truncation and downlink loss, paranoid checking,
// conflicting multicast claims and a ben fence, all in one run.
TEST(FaultGolden, BulkChannelStormWithMulticastConflictsAndFence) {
    const BulkStormOutcome o = golden_bulk_storm_run();
    const BulkChannelResult& r = o.result;
    EXPECT_DOUBLE_EQ(r.mean_delay, 57.651256221142681);
    EXPECT_DOUBLE_EQ(r.max_delay, 1319.0);
    EXPECT_EQ(r.p50_delay, 4u);
    EXPECT_EQ(r.p99_delay, 821u);
    EXPECT_EQ(r.generated, 19203u);
    EXPECT_EQ(r.delivered_unique, 18634u);
    EXPECT_EQ(r.duplicate_deliveries, 11u);
    EXPECT_EQ(r.dropped_voq, 0u);
    EXPECT_EQ(r.config_crc_errors, 353u);
    EXPECT_EQ(r.grant_crc_errors, 12u);
    EXPECT_EQ(r.configs_lost, 0u);
    EXPECT_EQ(r.grants_lost, 124u);
    EXPECT_EQ(r.data_corruptions, 3320u);
    EXPECT_EQ(r.ack_losses, 11u);
    EXPECT_EQ(r.retransmissions, 3321u);
    EXPECT_EQ(r.abandoned, 0u);
    EXPECT_EQ(r.crash_lost, 484u);
    EXPECT_EQ(r.recovered, 2809u);
    EXPECT_DOUBLE_EQ(r.mean_recovery_delay, 10.113919544321787);
    EXPECT_EQ(r.multicast_copies, 25u);
    EXPECT_EQ(r.multicast_lost, 0u);
    EXPECT_DOUBLE_EQ(r.goodput, 0.57965277777777779);
    EXPECT_EQ(r.sched,
              (obs::SchedCounters{.cycles = 3940, .requests = 66207,
                  .grants = 22068, .empty_cycles = 0, .max_matching = 8,
                  .max_starvation_age = 54, .paranoid_violations = 0,
                  .stalled_cycles = 60}));
    EXPECT_EQ(r.faults,
              (fault::FaultCounters{.packets_dropped = 124,
                  .packets_truncated = 327, .packets_corrupted = 0,
                  .bits_flipped = 0, .crashes = 1, .restarts = 1,
                  .stalled_slots = 60}));
    EXPECT_EQ(o.fenced_during, 64u);
    EXPECT_EQ(o.fenced_after, 0u);
    EXPECT_EQ(o.buffered, 85u);
    EXPECT_EQ(o.accounting.queued, 83u);
    EXPECT_EQ(o.accounting.in_flight, 2u);
    EXPECT_EQ(o.accounting.dropped, 484u);
    EXPECT_TRUE(o.accounting.balanced());
}

// 100 hosts span two 64-bit words and wrap every rotating pointer.
TEST(FaultGolden, QuickChannel100HostsWithBitErrorsAndCrashes) {
    const QuickStormOutcome o = golden_quick_100_hosts_run();
    const QuickChannelResult& r = o.result;
    EXPECT_DOUBLE_EQ(r.mean_delay, 11.377156326005458);
    EXPECT_DOUBLE_EQ(r.max_delay, 186.0);
    EXPECT_EQ(r.generated, 119748u);
    EXPECT_EQ(r.delivered_unique, 118423u);
    EXPECT_EQ(r.duplicate_deliveries, 70u);
    EXPECT_EQ(r.dropped_queue, 6u);
    EXPECT_EQ(r.collisions, 47861u);
    EXPECT_EQ(r.corruptions, 1335u);
    EXPECT_EQ(r.fault_losses, 1480u);
    EXPECT_EQ(r.retransmissions, 49933u);
    EXPECT_EQ(r.abandoned, 557u);
    EXPECT_EQ(r.abandoned_delivered, 0u);
    EXPECT_EQ(r.crash_lost, 647u);
    EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.98893509703711124);
    EXPECT_EQ(r.faults,
              (fault::FaultCounters{.packets_dropped = 0,
                  .packets_truncated = 0, .packets_corrupted = 0,
                  .bits_flipped = 0, .crashes = 2, .restarts = 2,
                  .stalled_slots = 0}));
    EXPECT_EQ(o.control_sent, 600u);
    EXPECT_EQ(o.control_preemptions, 351u);
    EXPECT_EQ(o.control_lost, 3u);
    EXPECT_EQ(o.accounting.queued, 87u);
    EXPECT_EQ(o.accounting.in_flight, 28u);
    EXPECT_EQ(o.accounting.dropped, 653u);
    EXPECT_TRUE(o.accounting.balanced());
}

// ---------------------------------------------------------------------
// Golden pins for the abstract data/ack paths, where each channel
// composes its base bit-error model with the plan's epochs: bit-error
// and packet-loss epochs on both paths, a data link-down interval, two
// overlapping crash intervals on one host (it crashes once), and — on
// the bulk channel — multicast fan-out during the data epoch. Recorded
// before the loss model moved into fault::FaultInjector.
// ---------------------------------------------------------------------

fault::FaultPlan abstract_path_plan() {
    fault::FaultPlan p;
    p.add_bit_error_epoch({fault::LinkKind::kData, fault::kAllLinks}, 400,
                          1600, 2e-5)
        .add_bit_error_epoch({fault::LinkKind::kAck, 2}, 800, 2200, 2e-3)
        .add_packet_loss({fault::LinkKind::kData, 1}, 1000, 2400, 0.2)
        .add_packet_loss({fault::LinkKind::kAck, fault::kAllLinks}, 1500,
                         2600, 0.1)
        .add_link_down({fault::LinkKind::kData, 4}, 1200, 1500)
        .add_host_crash(6, 700, 1300)
        .add_host_crash(6, 1000, 1700);
    return p;
}

BulkStormOutcome golden_bulk_abstract_path_run() {
    BulkChannelConfig c;
    c.hosts = 8;
    c.slots = 3000;
    c.warmup_slots = 300;
    c.seed = 808;
    c.bit_error_rate = 1e-5;
    c.fault_plan = abstract_path_plan();
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.5));
    BulkStormOutcome out;
    while (sim.current_slot() < c.slots) {
        const std::uint64_t t = sim.current_slot();
        if (t >= 400 && t < 1600 && t % 50 == 0) {
            // Rotating sources, fan-out that includes the crashing host 6.
            sim.enqueue_multicast((t / 50) % 8, 0b01010110);
        }
        sim.step();
    }
    out.result = sim.result();
    out.buffered = sim.buffered_total();
    out.accounting = sim.accounting();
    return out;
}

QuickStormOutcome golden_quick_abstract_path_run() {
    QuickChannelConfig c;
    c.hosts = 8;
    c.slots = 3000;
    c.warmup_slots = 300;
    c.seed = 909;
    c.bit_error_rate = 1e-5;
    c.fault_plan = abstract_path_plan();
    QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.3));
    while (sim.current_slot() < c.slots) {
        const std::uint64_t t = sim.current_slot();
        if (t % 3 == 0) sim.inject_control(t % 8, (t * 5 + 3) % 8);
        sim.step();
    }
    QuickStormOutcome out;
    out.result = sim.result();
    out.control_sent = sim.control_sent();
    out.control_preemptions = sim.control_preemptions();
    out.control_lost = sim.control_lost();
    out.accounting = sim.accounting();
    return out;
}

TEST(FaultGolden, BulkChannelAbstractPathFaults) {
    const BulkStormOutcome o = golden_bulk_abstract_path_run();
    const BulkChannelResult& r = o.result;
    EXPECT_DOUBLE_EQ(r.mean_delay, 65.882510410470346);
    EXPECT_DOUBLE_EQ(r.max_delay, 1121.0);
    EXPECT_EQ(r.p50_delay, 5u);
    EXPECT_EQ(r.p99_delay, 948u);
    EXPECT_EQ(r.generated, 11904u);
    EXPECT_EQ(r.delivered_unique, 11319u);
    EXPECT_EQ(r.duplicate_deliveries, 622u);
    EXPECT_EQ(r.dropped_voq, 0u);
    EXPECT_EQ(r.config_crc_errors, 27u);
    EXPECT_EQ(r.grant_crc_errors, 12u);
    EXPECT_EQ(r.configs_lost, 0u);
    EXPECT_EQ(r.grants_lost, 0u);
    EXPECT_EQ(r.data_corruptions, 4382u);
    EXPECT_EQ(r.ack_losses, 622u);
    EXPECT_EQ(r.retransmissions, 4976u);
    EXPECT_EQ(r.abandoned, 0u);
    EXPECT_EQ(r.crash_lost, 501u);
    EXPECT_EQ(r.recovered, 2735u);
    EXPECT_DOUBLE_EQ(r.mean_recovery_delay, 13.198903107861046);
    EXPECT_EQ(r.multicast_copies, 50u);
    EXPECT_EQ(r.multicast_lost, 3u);
    EXPECT_DOUBLE_EQ(r.goodput, 0.46736111111111112);
    EXPECT_EQ(r.sched,
              (obs::SchedCounters{.cycles = 3000, .requests = 48784,
                  .grants = 16308, .empty_cycles = 0, .max_matching = 8,
                  .max_starvation_age = 0, .paranoid_violations = 0,
                  .stalled_cycles = 0}));
    // FaultCounters count the plan's interval edges: two crashes and two
    // restarts for host 6's single down period.
    EXPECT_EQ(r.faults,
              (fault::FaultCounters{.packets_dropped = 862,
                  .packets_truncated = 0, .packets_corrupted = 0,
                  .bits_flipped = 0, .crashes = 2, .restarts = 2,
                  .stalled_slots = 0}));
    EXPECT_EQ(o.buffered, 84u);
    EXPECT_EQ(o.accounting.generated, 11904u);
    EXPECT_EQ(o.accounting.delivered_unique, 11319u);
    EXPECT_EQ(o.accounting.queued, 82u);
    EXPECT_EQ(o.accounting.in_flight, 2u);
    EXPECT_EQ(o.accounting.dropped, 501u);
    EXPECT_EQ(o.accounting.abandoned, 0u);
    EXPECT_TRUE(o.accounting.balanced());
}

TEST(FaultGolden, QuickChannelAbstractPathFaults) {
    const QuickStormOutcome o = golden_quick_abstract_path_run();
    const QuickChannelResult& r = o.result;
    EXPECT_DOUBLE_EQ(r.mean_delay, 78.905656967287072);
    EXPECT_DOUBLE_EQ(r.max_delay, 523.0);
    EXPECT_EQ(r.generated, 7237u);
    EXPECT_EQ(r.delivered_unique, 6230u);
    EXPECT_EQ(r.duplicate_deliveries, 338u);
    EXPECT_EQ(r.dropped_queue, 549u);
    EXPECT_EQ(r.collisions, 3484u);
    EXPECT_EQ(r.corruptions, 170u);
    EXPECT_EQ(r.fault_losses, 1431u);
    EXPECT_EQ(r.retransmissions, 4750u);
    EXPECT_EQ(r.abandoned, 153u);
    EXPECT_EQ(r.abandoned_delivered, 0u);
    EXPECT_EQ(r.crash_lost, 302u);
    EXPECT_DOUBLE_EQ(r.delivery_ratio, 0.86085394500483625);
    EXPECT_EQ(r.faults,
              (fault::FaultCounters{.packets_dropped = 533,
                  .packets_truncated = 0, .packets_corrupted = 0,
                  .bits_flipped = 0, .crashes = 2, .restarts = 2,
                  .stalled_slots = 0}));
    EXPECT_EQ(o.control_sent, 1000u);
    EXPECT_EQ(o.control_preemptions, 493u);
    EXPECT_EQ(o.control_lost, 43u);
    EXPECT_EQ(o.accounting.generated, 7237u);
    EXPECT_EQ(o.accounting.delivered_unique, 6230u);
    EXPECT_EQ(o.accounting.queued, 2u);
    EXPECT_EQ(o.accounting.in_flight, 1u);
    EXPECT_EQ(o.accounting.dropped, 851u);
    EXPECT_EQ(o.accounting.abandoned, 153u);
    EXPECT_TRUE(o.accounting.balanced());
}

// ---------------------------------------------------------------------
// Channel-level fault behavior.
// ---------------------------------------------------------------------

TEST(BulkChannelFaults, CrashDestroysStateAndRestartResumes) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 3000;
    c.warmup_slots = 0;
    c.seed = 21;
    c.fault_plan.add_host_crash(1, 500, 1500);
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.5));
    while (sim.current_slot() < 600) sim.step();
    EXPECT_FALSE(sim.host_up(1));
    const auto mid = sim.result();
    EXPECT_GT(mid.crash_lost, 0u);  // VOQ contents destroyed at the crash
    EXPECT_TRUE(sim.accounting().balanced());
    while (sim.current_slot() < c.slots) sim.step();
    EXPECT_TRUE(sim.host_up(1));
    const auto r = sim.result();
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    // Delivery kept happening after the restart.
    EXPECT_GT(r.delivered_unique, mid.delivered_unique);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(BulkChannelFaults, ControlLinkDownStallsGrantsButConservationHolds) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 2000;
    c.warmup_slots = 0;
    c.seed = 7;
    // Host 0's configuration uplink dies for a while: the switch sees no
    // requests from it, so its traffic waits and nothing leaks.
    c.fault_plan.add_link_down({fault::LinkKind::kUplink, 0}, 200, 900);
    c.fault_plan.add_packet_loss({fault::LinkKind::kDownlink, fault::kAllLinks},
                                 1000, 1500, 0.5);
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    const auto r = sim.run();
    EXPECT_GT(r.configs_lost, 0u);
    EXPECT_GT(r.grants_lost, 0u);
    EXPECT_GT(r.faults.packets_dropped, 0u);
    EXPECT_GT(r.delivered_unique, 0u);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(BulkChannelFaults, DataLossEpochForcesRecoveries) {
    BulkChannelConfig c;
    c.hosts = 4;
    c.slots = 3000;
    c.warmup_slots = 0;
    c.seed = 13;
    c.fault_plan.add_packet_loss({fault::LinkKind::kData, fault::kAllLinks}, 500,
                                 1500, 0.4);
    c.fault_plan.add_packet_loss({fault::LinkKind::kAck, fault::kAllLinks}, 500,
                                 1500, 0.4);
    BulkChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    const auto r = sim.run();
    EXPECT_GT(r.retransmissions, 0u);
    EXPECT_GT(r.recovered, 0u);
    EXPECT_GT(r.duplicate_deliveries, 0u);  // lost acks re-deliver
    EXPECT_GT(r.mean_recovery_delay, 0.0);
    EXPECT_TRUE(sim.accounting().balanced());
}

TEST(QuickChannelFaults, CrashAndLinkFaultsKeepAccountingExact) {
    QuickChannelConfig c;
    c.hosts = 4;
    c.slots = 3000;
    c.warmup_slots = 0;
    c.seed = 31;
    c.fault_plan.add_host_crash(2, 400, 1200);
    c.fault_plan.add_packet_loss({fault::LinkKind::kData, fault::kAllLinks}, 800,
                                 1600, 0.5);
    QuickChannelSim sim(c, std::make_unique<traffic::BernoulliUniform>(0.4));
    const auto r = sim.run();
    EXPECT_GT(r.crash_lost, 0u);
    EXPECT_GT(r.fault_losses, 0u);
    EXPECT_GT(r.retransmissions, 0u);
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_GT(r.delivered_unique, 0u);
    EXPECT_TRUE(sim.accounting().balanced());
}

}  // namespace
}  // namespace lcf::clint

namespace lcf::sim {
namespace {

TEST(SwitchSimFaults, SchedulerStallProducesNoMatchingAndIsCounted) {
    SimConfig c;
    c.ports = 8;
    c.slots = 2000;
    c.warmup_slots = 0;
    c.seed = 3;
    c.paranoid = true;
    c.fault_plan.add_scheduler_stall(500, 700);
    SwitchSim s(c, core::make_scheduler("lcf_central_rr"),
                std::make_unique<traffic::BernoulliUniform>(0.6));
    while (s.current_slot() < 600) s.step();
    EXPECT_EQ(s.last_matching().size(), 0u);  // mid-stall: nothing granted
    while (s.current_slot() < c.slots) s.step();
    const auto r = s.result();
    EXPECT_EQ(r.sched.stalled_cycles, 200u);
    EXPECT_EQ(r.faults.stalled_slots, 200u);
    EXPECT_GT(r.delivered, 0u);
    // Conservation: everything generated is delivered or still buffered.
    std::size_t buffered = 0;
    for (std::size_t i = 0; i < c.ports; ++i) {
        buffered += s.voq(i).total_buffered() + s.input_queue(i).size();
    }
    EXPECT_EQ(r.generated, r.delivered + r.dropped + buffered);
}

TEST(SwitchSimFaults, CrashedPortIsMaskedOutOfTheMatching) {
    SimConfig c;
    c.ports = 8;
    c.slots = 1500;
    c.warmup_slots = 0;
    c.seed = 17;
    c.paranoid = true;
    c.fault_plan.add_host_crash(3, 200, 1000);
    SwitchSim s(c, core::make_scheduler("lcf_central_rr"),
                std::make_unique<traffic::BernoulliUniform>(0.8));
    while (s.current_slot() < c.slots) {
        s.step();
        const std::uint64_t slot = s.current_slot() - 1;
        if (slot >= 200 && slot < 1000) {
            EXPECT_FALSE(s.last_matching().input_matched(3)) << slot;
            EXPECT_FALSE(s.last_matching().output_matched(3)) << slot;
        }
    }
    const auto r = s.result();
    EXPECT_EQ(r.faults.crashes, 1u);
    EXPECT_EQ(r.faults.restarts, 1u);
    EXPECT_GT(r.dropped, 0u);  // arrivals at the crashed port
    EXPECT_GT(r.delivered, 0u);
    std::size_t buffered = 0;
    for (std::size_t i = 0; i < c.ports; ++i) {
        buffered += s.voq(i).total_buffered() + s.input_queue(i).size();
    }
    EXPECT_EQ(r.generated, r.delivered + r.dropped + buffered);
}

// Every architecture, with and without speedup and a blocking Clos
// fabric, through a crash (arrivals dropped, buffered packets kept) and
// a scheduler stall: `body` gets one simulator per configuration.
template <typename Body>
void for_each_faulted_switch(bool paranoid, Body body) {
    for (const SwitchMode mode : {SwitchMode::kVoq, SwitchMode::kFifo,
                                  SwitchMode::kOutputBuffered}) {
        for (std::size_t speedup = 1; speedup <= 3; ++speedup) {
            for (const std::size_t clos_middle : {0UL, 1UL}) {
                SimConfig c;
                c.ports = 8;
                c.slots = 600;
                c.warmup_slots = 100;
                c.seed = 29;
                c.mode = mode;
                c.speedup = speedup;
                c.clos_middle = clos_middle;
                c.clos_group = 4;
                c.voq_capacity = 4;
                c.pq_capacity = 8;
                c.fifo_capacity = 8;
                c.outbuf_capacity = 4;
                c.paranoid = paranoid;
                c.fault_plan.add_host_crash(2, 100, 300)
                    .add_scheduler_stall(350, 400);
                SwitchSim s(c, core::make_scheduler("lcf_central_rr"),
                            std::make_unique<traffic::BernoulliUniform>(0.9));
                SCOPED_TRACE(::testing::Message()
                             << "mode " << static_cast<int>(mode)
                             << " speedup " << speedup << " clos "
                             << clos_middle);
                body(s);
                const SimResult r = s.result();
                EXPECT_GT(r.dropped, 0u);
                EXPECT_GT(r.delivered, 0u);
            }
        }
    }
}

// accounting() balances at every slot boundary.
TEST(SwitchSimFaults, AccountingBalancesAtEverySlotBoundary) {
    for_each_faulted_switch(false, [](SwitchSim& s) {
        ASSERT_TRUE(s.accounting().balanced());
        while (s.current_slot() < s.config().slots) {
            s.step();
            const Accounting a = s.accounting();
            ASSERT_TRUE(a.balanced()) << "slot " << s.current_slot();
            ASSERT_EQ(a.in_flight, 0u);
            ASSERT_EQ(a.abandoned, 0u);
        }
    });
}

// A paranoid run checks the same identity itself: step() throws
// std::logic_error on the first slot that does not balance.
TEST(SwitchSimFaults, ParanoidRunChecksConservationEverySlot) {
    for_each_faulted_switch(true, [](SwitchSim& s) {
        EXPECT_NO_THROW(s.run());
        EXPECT_EQ(s.current_slot(), s.config().slots);
        EXPECT_EQ(s.result().sched.paranoid_violations, 0u);
    });
}

}  // namespace
}  // namespace lcf::sim
