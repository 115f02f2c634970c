// Tests for the traffic generators: load calibration, destination
// distributions, determinism, burst structure, and trace replay.

#include "traffic/traffic.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "traffic/bernoulli.hpp"
#include "traffic/bursty.hpp"
#include "traffic/diagonal.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/permutation.hpp"
#include "traffic/trace.hpp"

namespace lcf::traffic {
namespace {

constexpr std::size_t kPorts = 16;
constexpr std::uint64_t kSlots = 50000;

/// Measured arrival rate of one generator at one input.
double measure_load(TrafficGenerator& gen, std::size_t input) {
    std::uint64_t arrivals = 0;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        if (gen.arrival(input, t) != kNoArrival) ++arrivals;
    }
    return static_cast<double>(arrivals) / static_cast<double>(kSlots);
}

TEST(Bernoulli, LoadIsCalibrated) {
    BernoulliUniform gen(0.6);
    gen.reset(kPorts, kPorts, 1);
    EXPECT_NEAR(measure_load(gen, 0), 0.6, 0.02);
}

TEST(Bernoulli, ZeroAndFullLoad) {
    BernoulliUniform none(0.0);
    none.reset(kPorts, kPorts, 1);
    EXPECT_EQ(measure_load(none, 0), 0.0);
    BernoulliUniform full(1.0);
    full.reset(kPorts, kPorts, 1);
    EXPECT_EQ(measure_load(full, 0), 1.0);
}

TEST(Bernoulli, DestinationsAreUniform) {
    BernoulliUniform gen(1.0);
    gen.reset(kPorts, kPorts, 3);
    std::vector<std::uint64_t> counts(kPorts, 0);
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const auto d = gen.arrival(2, t);
        ASSERT_NE(d, kNoArrival);
        ++counts[static_cast<std::size_t>(d)];
    }
    const double expected = static_cast<double>(kSlots) / kPorts;
    for (const auto c : counts) {
        EXPECT_NEAR(static_cast<double>(c), expected, expected * 0.15);
    }
}

TEST(Bernoulli, DeterministicPerSeed) {
    BernoulliUniform a(0.5), b(0.5);
    a.reset(4, 4, 9);
    b.reset(4, 4, 9);
    for (std::uint64_t t = 0; t < 1000; ++t) {
        for (std::size_t i = 0; i < 4; ++i) {
            EXPECT_EQ(a.arrival(i, t), b.arrival(i, t));
        }
    }
}

TEST(Bernoulli, InputStreamsAreIndependent) {
    BernoulliUniform gen(0.5);
    gen.reset(2, 16, 5);
    int same = 0, total = 0;
    for (std::uint64_t t = 0; t < 2000; ++t) {
        const auto a = gen.arrival(0, t);
        const auto b = gen.arrival(1, t);
        if (a != kNoArrival && b != kNoArrival) {
            ++total;
            if (a == b) ++same;
        }
    }
    ASSERT_GT(total, 100);
    EXPECT_LT(static_cast<double>(same) / total, 0.2);  // ~1/16 expected
}

TEST(Bernoulli, RejectsInvalidLoad) {
    EXPECT_THROW(BernoulliUniform(-0.1), std::invalid_argument);
    EXPECT_THROW(BernoulliUniform(1.1), std::invalid_argument);
}

TEST(Bursty, LoadIsCalibrated) {
    BurstyTraffic gen(0.4, 8.0);
    gen.reset(kPorts, kPorts, 2);
    EXPECT_NEAR(measure_load(gen, 0), 0.4, 0.05);
}

TEST(Bursty, BurstsShareOneDestination) {
    BurstyTraffic gen(0.5, 32.0);
    gen.reset(1, kPorts, 11);
    // Consecutive arrivals (no idle slot between them) belong to one
    // burst and must have equal destinations.
    std::int32_t prev = kNoArrival;
    std::uint64_t same_dst_runs = 0, switches_inside_run = 0;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const auto d = gen.arrival(0, t);
        if (d != kNoArrival && prev != kNoArrival) {
            if (d == prev) {
                ++same_dst_runs;
            } else {
                ++switches_inside_run;
            }
        }
        prev = d;
    }
    // Long bursts: destination changes between consecutive busy slots
    // happen only at (rare) burst boundaries.
    EXPECT_GT(same_dst_runs, 10 * switches_inside_run);
}

TEST(Bursty, MeanBurstLengthApproximatesParameter) {
    constexpr double kMeanBurst = 10.0;
    BurstyTraffic gen(0.5, kMeanBurst);
    gen.reset(1, kPorts, 13);
    std::uint64_t bursts = 0, busy = 0;
    bool in_burst = false;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const bool arrival = gen.arrival(0, t) != kNoArrival;
        if (arrival) {
            ++busy;
            if (!in_burst) ++bursts;
        }
        in_burst = arrival;
    }
    ASSERT_GT(bursts, 100u);
    EXPECT_NEAR(static_cast<double>(busy) / static_cast<double>(bursts),
                kMeanBurst, 2.0);
}

TEST(Bursty, RejectsInvalidParameters) {
    EXPECT_THROW(BurstyTraffic(0.5, 0.5), std::invalid_argument);
    EXPECT_THROW(BurstyTraffic(1.5, 8.0), std::invalid_argument);
}

TEST(Hotspot, HotPortReceivesConfiguredFraction) {
    HotspotTraffic gen(1.0, 0.5, 3);
    gen.reset(kPorts, kPorts, 4);
    std::uint64_t hot = 0, total = 0;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const auto d = gen.arrival(0, t);
        ASSERT_NE(d, kNoArrival);
        ++total;
        if (d == 3) ++hot;
    }
    // hot fraction + uniform share of the remainder: 0.5 + 0.5/16.
    EXPECT_NEAR(static_cast<double>(hot) / static_cast<double>(total),
                0.5 + 0.5 / kPorts, 0.02);
}

TEST(Hotspot, RejectsOutOfRangeHotPort) {
    HotspotTraffic gen(0.5, 0.3, 99);
    EXPECT_THROW(gen.reset(4, 4, 1), std::invalid_argument);
}

TEST(Diagonal, OnlyTwoDestinationsPerInput) {
    DiagonalTraffic gen(1.0);
    gen.reset(kPorts, kPorts, 6);
    std::uint64_t to_self = 0, to_next = 0;
    for (std::uint64_t t = 0; t < kSlots; ++t) {
        const auto d = gen.arrival(5, t);
        ASSERT_TRUE(d == 5 || d == 6) << d;
        (d == 5 ? to_self : to_next) += 1;
    }
    EXPECT_NEAR(static_cast<double>(to_self) /
                    static_cast<double>(to_self + to_next),
                2.0 / 3.0, 0.02);
}

TEST(Diagonal, WrapsAtLastInput) {
    DiagonalTraffic gen(1.0);
    gen.reset(kPorts, kPorts, 6);
    for (std::uint64_t t = 0; t < 100; ++t) {
        const auto d = gen.arrival(kPorts - 1, t);
        ASSERT_TRUE(d == static_cast<std::int32_t>(kPorts - 1) || d == 0);
    }
}

TEST(Permutation, DestinationsAreFixedAndDistinct) {
    PermutationTraffic gen(1.0);
    gen.reset(kPorts, kPorts, 8);
    std::vector<bool> used(kPorts, false);
    for (std::size_t i = 0; i < kPorts; ++i) {
        const std::size_t d = gen.destination_of(i);
        EXPECT_FALSE(used[d]);
        used[d] = true;
        for (std::uint64_t t = 0; t < 100; ++t) {
            const auto a = gen.arrival(i, t);
            if (a != kNoArrival) {
                EXPECT_EQ(static_cast<std::size_t>(a), d);
            }
        }
    }
}

TEST(Trace, ReplaysExactly) {
    TraceTraffic gen({{0, 0, 3}, {0, 1, 2}, {5, 0, 1}});
    gen.reset(4, 4, 0);
    EXPECT_EQ(gen.arrival(0, 0), 3);
    EXPECT_EQ(gen.arrival(1, 0), 2);
    EXPECT_EQ(gen.arrival(2, 0), kNoArrival);
    EXPECT_EQ(gen.arrival(0, 3), kNoArrival);
    EXPECT_EQ(gen.arrival(0, 5), 1);
}

TEST(Trace, RejectsDuplicatesAndRangeErrors) {
    EXPECT_THROW(TraceTraffic({{0, 0, 1}, {0, 0, 2}}), std::invalid_argument);
    TraceTraffic bad_input({{0, 9, 1}});
    EXPECT_THROW(bad_input.reset(4, 4, 0), std::invalid_argument);
    TraceTraffic bad_dst({{0, 0, 9}});
    EXPECT_THROW(bad_dst.reset(4, 4, 0), std::invalid_argument);
}

TEST(Trace, OfferedLoadSurvivesHugeSlots) {
    // The span (max_slot + 1) * inputs overflows 64 bits for slots near
    // 2^62; the load must still be arrivals over the true span.
    TraceTraffic far({{0, 0, 1}, {std::uint64_t{1} << 62, 1, 2}});
    far.reset(4, 4, 0);
    EXPECT_NEAR(far.offered_load(), 2.0 / (std::ldexp(1.0, 62) * 4.0),
                1e-30);
    TraceTraffic last({{~std::uint64_t{0}, 0, 1}});
    last.reset(4, 4, 0);
    EXPECT_GT(last.offered_load(), 0.0);
    EXPECT_LT(last.offered_load(), 1e-19);
}

TEST(Generators, BatchMatchesScalar) {
    // arrivals(t, out) must draw exactly what arrival(i, t) draws for
    // ascending i: a batched run and a scalar run are the same run.
    constexpr std::size_t kN = 16;
    for (const auto& name : traffic_names()) {
        for (const double load : {0.3, 0.9, 1.0}) {
            auto scalar = make_traffic(name, load);
            auto batch = make_traffic(name, load);
            scalar->reset(kN, kN, 21);
            batch->reset(kN, kN, 21);
            std::vector<std::int32_t> out(kN);
            for (std::uint64_t t = 0; t < 2000; ++t) {
                batch->arrivals(t, out.data());
                for (std::size_t i = 0; i < kN; ++i) {
                    ASSERT_EQ(scalar->arrival(i, t), out[i])
                        << name << " load " << load << " slot " << t
                        << " input " << i;
                }
            }
        }
    }
}

TEST(Generators, RejectEmptyGeometry) {
    // Regression: reset(n, 0, seed) used to be accepted, and the first
    // arrival() then drew a destination below 0 — division by zero
    // inside the RNG's rejection sampler.
    for (const auto& name : traffic_names()) {
        auto gen = make_traffic(name, 0.5);
        EXPECT_THROW(gen->reset(4, 0, 1), std::invalid_argument) << name;
        EXPECT_THROW(gen->reset(0, 4, 1), std::invalid_argument) << name;
        gen->reset(4, 4, 1);  // sane geometry still accepted afterwards
    }
}

TEST(Factory, UnknownNameListsValidNames) {
    try {
        make_traffic("nope", 0.5);
        FAIL() << "expected std::invalid_argument";
    } catch (const std::invalid_argument& e) {
        const std::string message = e.what();
        EXPECT_NE(message.find("nope"), std::string::npos);
        for (const auto& name : traffic_names()) {
            EXPECT_NE(message.find(name), std::string::npos) << name;
        }
    }
}

TEST(Factory, TrafficNamesRoundTrip) {
    for (const auto& name : traffic_names()) {
        EXPECT_TRUE(is_traffic_name(name)) << name;
        EXPECT_NE(make_traffic(name, 0.5), nullptr) << name;
    }
    EXPECT_FALSE(is_traffic_name("nope"));
    EXPECT_FALSE(is_traffic_name(""));
}

TEST(Factory, MakesEveryKnownPattern) {
    for (const auto& name : traffic_names()) {
        auto gen = make_traffic(name, 0.5);
        ASSERT_NE(gen, nullptr) << name;
        EXPECT_EQ(gen->name(), name);
        EXPECT_DOUBLE_EQ(gen->offered_load(), 0.5);
    }
    EXPECT_THROW(make_traffic("nope", 0.5), std::invalid_argument);
}

}  // namespace
}  // namespace lcf::traffic
