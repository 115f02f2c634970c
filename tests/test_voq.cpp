// Tests for the VOQ bank — routing by destination, per-queue capacity,
// and the pooled slab (FIFO order per output, reuse of freed entries,
// the O(1) total) — and for the request bits SwitchSim keeps in step
// with VOQ occupancy.

#include "sim/voq.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <vector>

#include "core/factory.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/trace.hpp"
#include "util/rng.hpp"

namespace lcf::sim {
namespace {

Packet to(std::size_t destination, std::uint64_t id = 0) {
    return Packet{id, 0, static_cast<std::uint32_t>(destination), 0};
}

TEST(VoqBank, RoutesByDestination) {
    VoqBank bank(4, 8);
    EXPECT_TRUE(bank.push(to(2, 0)));
    EXPECT_TRUE(bank.push(to(2, 1)));
    EXPECT_TRUE(bank.push(to(3, 2)));
    EXPECT_EQ(bank.size(2), 2u);
    EXPECT_EQ(bank.size(3), 1u);
    EXPECT_EQ(bank.size(0), 0u);
    EXPECT_TRUE(bank.empty(0));
    EXPECT_FALSE(bank.empty(2));
    EXPECT_EQ(bank.total_buffered(), 3u);
}

TEST(VoqBank, PerQueueCapacityEnforced) {
    VoqBank bank(2, 2);
    EXPECT_TRUE(bank.push(to(1, 0)));
    EXPECT_TRUE(bank.push(to(1, 1)));
    EXPECT_TRUE(bank.full(1));
    EXPECT_FALSE(bank.push(to(1, 2)));  // queue 1 is full
    EXPECT_EQ(bank.size(1), 2u);
    EXPECT_TRUE(bank.push(to(0, 3)));   // queue 0 has space
    EXPECT_FALSE(bank.full(0));
    EXPECT_EQ(bank.pop(1).id, 0u);
    EXPECT_TRUE(bank.push(to(1, 4)));   // space again after a pop
    EXPECT_EQ(bank.total_buffered(), 3u);
}

// Random interleaved pushes and pops over many outputs, checked against
// one std::deque per output: FIFO order per output, per-queue capacity,
// total_buffered() == Σ size(j), and a slab that never outgrows the
// bank's peak occupancy (freed entries are reused).
TEST(VoqBank, MatchesPerOutputDequesUnderInterleaving) {
    constexpr std::size_t kOutputs = 37;
    constexpr std::size_t kCapacity = 5;
    VoqBank bank(kOutputs, kCapacity);
    std::vector<std::deque<std::uint64_t>> model(kOutputs);
    util::Xoshiro256 rng(2024);
    std::size_t total = 0;
    std::size_t peak = 0;
    std::uint64_t next_id = 0;
    for (int step = 0; step < 20000; ++step) {
        const std::size_t j = rng.next_below(kOutputs);
        // Push-heavy for the first half, pop-heavy for the second, so
        // the bank fills, drains and refills.
        const bool push = rng.next_below(100) < (step < 10000 ? 60u : 40u);
        if (push) {
            const bool accepted = bank.push(to(j, next_id));
            ASSERT_EQ(accepted, model[j].size() < kCapacity);
            if (accepted) {
                model[j].push_back(next_id);
                ++total;
            }
            ++next_id;
        } else if (!model[j].empty()) {
            ASSERT_FALSE(bank.empty(j));
            const Packet p = bank.pop(j);
            ASSERT_EQ(p.id, model[j].front());
            ASSERT_EQ(p.destination, j);
            model[j].pop_front();
            --total;
        } else {
            ASSERT_TRUE(bank.empty(j));
        }
        peak = std::max(peak, total);
        std::size_t sum = 0;
        for (std::size_t k = 0; k < kOutputs; ++k) {
            ASSERT_EQ(bank.size(k), model[k].size());
            ASSERT_EQ(bank.full(k), model[k].size() == kCapacity);
            sum += bank.size(k);
        }
        ASSERT_EQ(bank.total_buffered(), sum);
        ASSERT_EQ(bank.total_buffered(), total);
        ASSERT_EQ(bank.slab_size(), peak);
    }
    EXPECT_GT(peak, kOutputs);  // the run did fill many queues at once
}

TEST(VoqBank, RejectsPoolBeyond32BitLinks) {
    EXPECT_THROW(VoqBank(65536, 65537), std::invalid_argument);
    EXPECT_NO_THROW(VoqBank(65536, 65535));  // the slab is allocated lazily
}

// ---------------------------------------------------------------------
// SwitchSim's request matrix is the single record of VOQ occupancy.

// A scheduler stall over slots [0, 3) forwards nothing, so the first
// arrivals pile up in the VOQs.
SimConfig stalled_config() {
    SimConfig c;
    c.ports = 4;
    c.slots = 100;
    c.warmup_slots = 0;
    c.fault_plan.add_scheduler_stall(0, 3);
    return c;
}

SwitchSim make_sim(const SimConfig& c,
                   std::vector<traffic::TraceEntry> trace) {
    return SwitchSim(c, core::make_scheduler("lcf_central"),
                     std::make_unique<traffic::TraceTraffic>(std::move(trace)));
}

TEST(VoqBank, OccupancyReflectsPushes) {
    auto sim = make_sim(stalled_config(), {{0, 0, 1}, {1, 0, 3}, {1, 2, 1}});
    sim.step();
    sim.step();
    const auto& req = sim.requests();
    EXPECT_FALSE(req.get(0, 0));
    EXPECT_TRUE(req.get(0, 1));
    EXPECT_FALSE(req.get(0, 2));
    EXPECT_TRUE(req.get(0, 3));
    EXPECT_TRUE(req.get(2, 1));
    EXPECT_EQ(req.total(), 3u);
    EXPECT_EQ(req.col(1).count(), 2u);
    EXPECT_TRUE(req.col(1).test(0));
    EXPECT_TRUE(req.col(1).test(2));
    EXPECT_EQ(sim.voq(0).size(1), 1u);
    EXPECT_EQ(sim.voq(0).size(3), 1u);
}

TEST(VoqBank, OccupancyEmptiesAfterDrain) {
    auto sim = make_sim(stalled_config(), {{0, 0, 2}, {1, 0, 2}, {1, 3, 2}});
    while (sim.current_slot() < 3) sim.step();
    EXPECT_EQ(sim.requests().total(), 2u);
    EXPECT_EQ(sim.voq(0).size(2), 2u);
    while (sim.metrics().delivered() < 3 && sim.current_slot() < 50) {
        sim.step();
    }
    EXPECT_EQ(sim.metrics().delivered(), 3u);
    EXPECT_EQ(sim.requests().total(), 0u);
    for (std::size_t k = 0; k < 4; ++k) {
        EXPECT_TRUE(sim.requests().row(k).none());
        EXPECT_TRUE(sim.requests().col(k).none());
        EXPECT_EQ(sim.voq(k).total_buffered(), 0u);
    }
}

// While host 1 is down the scheduler sees a masked copy; requests()
// keeps the true occupancy (input 0 still holds a packet for output 1)
// and carries no bit for a drained VOQ.
TEST(VoqBank, RequestRowHasNoStaleBits) {
    SimConfig c = stalled_config();
    c.fault_plan.scheduler_stalls.clear();
    c.fault_plan.add_host_crash(1, 0, 10);
    auto sim = make_sim(c, {{0, 0, 1}, {1, 0, 2}, {2, 0, 3}});
    for (int s = 0; s < 6; ++s) sim.step();
    const auto& req = sim.requests();
    EXPECT_TRUE(req.get(0, 1));
    EXPECT_EQ(sim.voq(0).size(1), 1u);
    EXPECT_EQ(req.total(), 1u);  // outputs 2 and 3 were served and cleared
    while (sim.metrics().delivered() < 3 && sim.current_slot() < 50) {
        sim.step();
    }
    EXPECT_EQ(sim.metrics().delivered(), 3u);
    EXPECT_GE(sim.current_slot(), 10u);  // output 1 waited for the restart
    EXPECT_EQ(req.total(), 0u);
}

}  // namespace
}  // namespace lcf::sim
