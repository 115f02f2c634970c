// Golden SimResult pins: end-to-end simulation outputs for every
// traffic model, captured before the batched-arrival / hot-slot-path
// rework (PR 4) and asserted bit-identical ever since. Any change to
// per-(input, slot) RNG draw order, queue mechanics, or metrics
// accounting shows up here as an exact-value mismatch.
//
// Also pins that sweep() and replicate() are deterministic functions of
// their seeds alone: thread count (1 vs 8 vs the shared pool) must not
// change a single bit of any result.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "analysis/replicate.hpp"
#include "sim/runner.hpp"

namespace lcf {
namespace {

sim::SimResult run_golden_point(const std::string& sched,
                                const std::string& traffic) {
    sim::SimConfig c;
    c.ports = 16;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 7777;
    return sim::run_named(sched, c, traffic, 0.85,
                          sched::SchedulerConfig{.iterations = 4,
                                                 .seed = 7777});
}

struct Golden {
    std::uint64_t generated, delivered, dropped, measured, grants;
    double mean_delay, p99_delay, throughput, mean_choices;
};

void expect_matches_golden(const sim::SimResult& r, const Golden& g) {
    EXPECT_EQ(r.generated, g.generated);
    EXPECT_EQ(r.delivered, g.delivered);
    EXPECT_EQ(r.dropped, g.dropped);
    EXPECT_EQ(r.measured, g.measured);
    EXPECT_EQ(r.sched.grants, g.grants);
    EXPECT_DOUBLE_EQ(r.mean_delay, g.mean_delay);
    EXPECT_DOUBLE_EQ(r.p99_delay, g.p99_delay);
    EXPECT_DOUBLE_EQ(r.throughput, g.throughput);
    EXPECT_DOUBLE_EQ(r.mean_choices, g.mean_choices);
}

TEST(SimGolden, UniformLcfCentralRr) {
    expect_matches_golden(
        run_golden_point("lcf_central_rr", "uniform"),
        {67804, 67747, 0, 60926, 67747, 4.6792830647014023, 30.0,
         0.84687500000000004, 3.1769583333333333});
}

TEST(SimGolden, BurstyLcfDistRr) {
    expect_matches_golden(
        run_golden_point("lcf_dist_rr", "bursty"),
        {71963, 69550, 0, 62417, 69550, 104.57823990259186, 992.0,
         0.87836111111111115, 4.6505833333333335});
}

TEST(SimGolden, ParetoIslip) {
    expect_matches_golden(
        run_golden_point("islip", "pareto"),
        {80000, 74302, 0, 66302, 74302, 211.24608609091615, 1533.0,
         0.93647222222222226, 10.577125000000001});
}

TEST(SimGolden, HotspotLcfCentral) {
    expect_matches_golden(
        run_golden_point("lcf_central", "hotspot"),
        {67831, 22535, 25211, 15735, 22535, 1186.3505560851568, 3791.0,
         0.24447222222222223, 1.4029166666666666});
}

TEST(SimGolden, DiagonalLcfCentral) {
    expect_matches_golden(
        run_golden_point("lcf_central", "diagonal"),
        {67804, 67767, 0, 60946, 67767, 3.2406064384864899, 14.0,
         0.84698611111111111, 1.3698611111111112});
}

TEST(SimGolden, PermutationIslip) {
    expect_matches_golden(
        run_golden_point("islip", "permutation"),
        {67730, 67730, 0, 60917, 67730, 1.0, 1.0, 0.84606944444444443,
         0.84606944444444443});
}

// The Figure-12 baselines in the benchmark's regime: 64 ports, bursty
// traffic, load 0.9. Recorded from the per-bit schedulers, before their
// word-parallel rewrite; "fifo" runs in kFifo mode through run_named().
sim::SimResult run_fig12_point(const std::string& sched) {
    sim::SimConfig c;
    c.ports = 64;
    c.slots = 4000;
    c.warmup_slots = 400;
    c.seed = 6464;
    return sim::run_named(sched, c, "bursty", 0.9,
                          sched::SchedulerConfig{.iterations = 4,
                                                 .seed = 6464});
}

TEST(SimGolden, Fig12BurstyPim) {
    expect_matches_golden(
        run_fig12_point("pim"),
        {243895, 227382, 0, 203012, 227382, 178.33153212617864, 1074.0,
         0.9008897569444444, 10.510881076388889});
}

TEST(SimGolden, Fig12BurstyWfront) {
    expect_matches_golden(
        run_fig12_point("wfront"),
        {243895, 225627, 0, 201257, 225627, 194.25653766080131, 1130.0,
         0.89461371527777778, 11.216037326388889});
}

TEST(SimGolden, Fig12BurstyFifo) {
    expect_matches_golden(
        run_fig12_point("fifo"),
        {243895, 130600, 49339, 106230, 130600, 1100.793222253586, 1959.0,
         0.5086414930555555, 0.0});
}

// The paths the incremental request matrix and pooled VOQ storage
// touch, recorded from the per-slot row copy and per-queue PacketQueue
// VOQs before that rewrite.
sim::SimResult run_voq_point(const std::string& sched, const std::string& traffic,
                             double load, const sim::SimConfig& c) {
    return sim::run_named(sched, c, traffic, load,
                          sched::SchedulerConfig{.iterations = 4,
                                                 .seed = c.seed});
}

sim::SimConfig small_voq_config() {
    sim::SimConfig c;
    c.ports = 16;
    c.slots = 5000;
    c.warmup_slots = 500;
    c.seed = 7777;
    return c;
}

// The benchmark's regime: 256 ports, Bernoulli-uniform load 0.9.
TEST(SimGolden, LcfCentralN256Uniform90) {
    sim::SimConfig c;
    c.ports = 256;
    c.slots = 2048;
    c.warmup_slots = 256;
    c.seed = 2569;
    expect_matches_golden(
        run_voq_point("lcf_central", "uniform", 0.9, c),
        {471925, 470524, 0, 411562, 470524, 7.0364610921318782, 70.0,
         0.9001268659319196, 6.0884203229631693});
}

// Speedup 2 into two-entry output buffers: matched packets whose output
// buffer is full stay in their VOQ (about 64k times in this run).
TEST(SimGolden, Speedup2FullOutputBuffers) {
    sim::SimConfig c = small_voq_config();
    c.speedup = 2;
    c.outbuf_capacity = 2;
    const auto r = run_voq_point("lcf_central_rr", "bursty", 0.9, c);
    expect_matches_golden(
        r, {76231, 72885, 0, 65263, 137397, 149.88201584358833, 1049.0,
            0.92072222222222222, 6.2899583333333338});
    EXPECT_EQ(r.sched.cycles, 10000u);
}

// Two-entry VOQs behind eight-entry packet queues under bursts: bursts
// back up into the packet queues, which overflow. Pins every field of
// the result, so a packet that skips ahead of a backed-up packet queue
// (or is dropped in the wrong place) shows up.
TEST(SimGolden, PacketQueueBackpressure) {
    sim::SimConfig c = small_voq_config();
    c.voq_capacity = 2;
    c.pq_capacity = 8;
    const auto r = run_voq_point("lcf_central", "bursty", 0.95, c);
    expect_matches_golden(
        r, {80000, 48196, 31654, 43279, 48196, 16.636682917812017, 82.0,
            0.60313888888888889, 1.7664166666666667});
    EXPECT_GT(r.dropped, 0u);
    EXPECT_DOUBLE_EQ(r.p50_delay, 11.0);
    EXPECT_DOUBLE_EQ(r.max_delay, 260.0);
    EXPECT_DOUBLE_EQ(r.offered_load, 0.95);
    EXPECT_EQ(r.fabric_blocked, 0u);
    EXPECT_EQ(r.ports, 16u);
    EXPECT_TRUE(r.service.empty());
    EXPECT_EQ(r.sched, (obs::SchedCounters{.cycles = 5000,
                                           .requests = 140845,
                                           .grants = 48196,
                                           .empty_cycles = 0,
                                           .max_matching = 14}));
    EXPECT_EQ(r.faults, fault::FaultCounters{});
}

// Two host crashes and a scheduler stall: the scheduler, trace and
// paranoid checker read a masked copy of the request matrix.
sim::SimConfig faulty_config() {
    sim::SimConfig c = small_voq_config();
    c.paranoid = true;
    c.trace_capacity = 64;
    c.fault_plan.add_host_crash(3, 1000, 2500)
        .add_host_crash(9, 1800, 2200)
        .add_scheduler_stall(3000, 3100);
    return c;
}

TEST(SimGolden, FaultPlanCrashAndStallVoq) {
    const auto r = run_voq_point("lcf_central", "uniform", 0.85, faulty_config());
    expect_matches_golden(
        r, {67804, 65258, 1604, 58437, 65258, 67.797354415866593, 1524.0,
            0.81229166666666663, 4.3520312499999996});
    EXPECT_EQ(r.sched.stalled_cycles, 100u);
    EXPECT_EQ(r.sched.cycles, 4900u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
}

TEST(SimGolden, FaultPlanCrashAndStallFifo) {
    const auto r = run_voq_point("fifo", "uniform", 0.85, faulty_config());
    expect_matches_golden(
        r, {67804, 32837, 19112, 26016, 32837, 1724.01994926199, 2399.0,
            0.38856944444444447, 0.0});
    EXPECT_EQ(r.sched.stalled_cycles, 100u);
    EXPECT_EQ(r.sched.cycles, 4900u);
    EXPECT_EQ(r.sched.paranoid_violations, 0u);
}

// A blocking Clos fabric (2 middle switches for groups of 4): rejected
// connections leave their packets queued.
TEST(SimGolden, BlockingClosFabric) {
    sim::SimConfig c = small_voq_config();
    c.clos_middle = 2;
    c.clos_group = 4;
    const auto r = run_voq_point("lcf_central", "uniform", 0.85, c);
    expect_matches_golden(
        r, {67804, 37640, 0, 31643, 77437, 468.55288689441875, 3265.0,
            0.47094444444444444, 12.182166666666667});
    EXPECT_EQ(r.fabric_blocked, 39797u);
}

// ---------------------------------------------------------------------
// sweep(): golden values and thread-count independence.

std::vector<sim::SweepPoint> run_golden_sweep(std::size_t threads) {
    sim::SimConfig c;
    c.ports = 16;
    c.slots = 3000;
    c.warmup_slots = 300;
    c.seed = 4242;
    return sim::sweep({"lcf_central_rr", "islip"}, {0.5, 0.9}, c, "uniform",
                      sched::SchedulerConfig{.iterations = 4, .seed = 11},
                      threads);
}

TEST(SimGolden, SweepPinnedValues) {
    const auto pts = run_golden_sweep(2);
    ASSERT_EQ(pts.size(), 4u);
    EXPECT_EQ(pts[0].result.generated, 23944u);
    EXPECT_EQ(pts[0].result.delivered, 23942u);
    EXPECT_DOUBLE_EQ(pts[0].result.mean_delay, 1.6251621872103788);
    EXPECT_DOUBLE_EQ(pts[0].result.throughput, 0.49974537037037037);
    EXPECT_EQ(pts[1].result.generated, 43151u);
    EXPECT_EQ(pts[1].result.delivered, 43075u);
    EXPECT_DOUBLE_EQ(pts[1].result.mean_delay, 7.259918485270612);
    EXPECT_DOUBLE_EQ(pts[1].result.throughput, 0.89932870370370366);
    EXPECT_EQ(pts[2].result.delivered, 23941u);
    EXPECT_DOUBLE_EQ(pts[2].result.mean_delay, 1.7139348440613515);
    EXPECT_EQ(pts[3].result.delivered, 43016u);
    EXPECT_DOUBLE_EQ(pts[3].result.mean_delay, 10.95471103417986);
    EXPECT_DOUBLE_EQ(pts[3].result.throughput, 0.89918981481481486);
}

void expect_results_identical(const sim::SimResult& a,
                              const sim::SimResult& b) {
    EXPECT_EQ(a.generated, b.generated);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.dropped, b.dropped);
    EXPECT_EQ(a.measured, b.measured);
    EXPECT_EQ(a.sched, b.sched);
    // Exact (not approximate) comparison: determinism means the same
    // bits, not close values.
    EXPECT_EQ(a.mean_delay, b.mean_delay);
    EXPECT_EQ(a.p50_delay, b.p50_delay);
    EXPECT_EQ(a.p99_delay, b.p99_delay);
    EXPECT_EQ(a.max_delay, b.max_delay);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.mean_choices, b.mean_choices);
}

TEST(SimGolden, SweepIsThreadCountIndependent) {
    const auto one = run_golden_sweep(1);
    const auto eight = run_golden_sweep(8);
    const auto shared = run_golden_sweep(0);  // process-wide shared pool
    ASSERT_EQ(one.size(), eight.size());
    ASSERT_EQ(one.size(), shared.size());
    for (std::size_t k = 0; k < one.size(); ++k) {
        SCOPED_TRACE(one[k].config_name + "@" +
                     std::to_string(one[k].load));
        EXPECT_EQ(one[k].config_name, eight[k].config_name);
        EXPECT_EQ(one[k].load, eight[k].load);
        expect_results_identical(one[k].result, eight[k].result);
        expect_results_identical(one[k].result, shared[k].result);
    }
}

// ---------------------------------------------------------------------
// replicate(): golden values and thread-count independence.

analysis::ReplicatedResult run_golden_replicate(std::size_t threads) {
    sim::SimConfig c;
    c.ports = 16;
    c.slots = 2000;
    c.warmup_slots = 200;
    c.seed = 99;
    return analysis::replicate(
        "lcf_dist", c, "bursty", 0.8, 4,
        sched::SchedulerConfig{.iterations = 4, .seed = 5}, threads);
}

TEST(SimGolden, ReplicatePinnedValues) {
    const auto rep = run_golden_replicate(2);
    EXPECT_DOUBLE_EQ(rep.mean_delay.mean, 59.706054542383505);
    EXPECT_DOUBLE_EQ(rep.mean_delay.half_width, 16.353563329291976);
    EXPECT_DOUBLE_EQ(rep.throughput.mean, 0.81801215277777783);
}

TEST(SimGolden, ReplicateIsThreadCountIndependent) {
    const auto one = run_golden_replicate(1);
    const auto eight = run_golden_replicate(8);
    ASSERT_EQ(one.runs.size(), eight.runs.size());
    for (std::size_t k = 0; k < one.runs.size(); ++k) {
        SCOPED_TRACE("replication " + std::to_string(k));
        expect_results_identical(one.runs[k], eight.runs[k]);
    }
    EXPECT_EQ(one.mean_delay.mean, eight.mean_delay.mean);
    EXPECT_EQ(one.mean_delay.half_width, eight.mean_delay.half_width);
    EXPECT_EQ(one.throughput.mean, eight.throughput.mean);
    EXPECT_EQ(one.throughput.half_width, eight.throughput.half_width);
}

}  // namespace
}  // namespace lcf
