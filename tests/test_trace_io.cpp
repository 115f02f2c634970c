// Tests for trace persistence and capture: CSV round-trip, malformed
// input, recording decorator, and the record -> replay identity on a
// full simulation.

#include <gtest/gtest.h>

#include <sstream>

#include "core/factory.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/bernoulli.hpp"
#include "traffic/trace_io.hpp"

namespace lcf::traffic {
namespace {

TEST(TraceIo, CsvRoundTrip) {
    const std::vector<TraceEntry> entries = {
        {0, 0, 3}, {0, 1, 2}, {5, 3, 0}, {100, 2, 1}};
    std::stringstream buf;
    write_trace_csv(buf, entries);
    const auto back = read_trace_csv(buf);
    ASSERT_EQ(back.size(), entries.size());
    for (std::size_t k = 0; k < entries.size(); ++k) {
        EXPECT_EQ(back[k].slot, entries[k].slot);
        EXPECT_EQ(back[k].input, entries[k].input);
        EXPECT_EQ(back[k].destination, entries[k].destination);
    }
}

TEST(TraceIo, EmptyTrace) {
    std::stringstream buf;
    write_trace_csv(buf, {});
    EXPECT_TRUE(read_trace_csv(buf).empty());
}

TEST(TraceIo, ToleratesCrlfAndBlankLines) {
    std::stringstream buf("slot,input,destination\r\n1,2,3\r\n\n4,5,6\n");
    const auto entries = read_trace_csv(buf);
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].slot, 1u);
    EXPECT_EQ(entries[1].destination, 6u);
}

TEST(TraceIo, HeaderMayFollowBlankLines) {
    std::stringstream buf("\n\r\nslot,input,destination\n1,2,3\n");
    const auto entries = read_trace_csv(buf);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0], (TraceEntry{1, 2, 3}));
}

TEST(TraceIo, HeaderMayFollowAByteOrderMark) {
    std::stringstream with_header("\xEF\xBB\xBFslot,input,destination\n4,5,6\n");
    const auto entries = read_trace_csv(with_header);
    ASSERT_EQ(entries.size(), 1u);
    EXPECT_EQ(entries[0], (TraceEntry{4, 5, 6}));
    // A mark before a data row, or before the blank lines above a header.
    std::stringstream data_row("\xEF\xBB\xBF" "7,8,9\n");
    EXPECT_EQ(read_trace_csv(data_row), (std::vector<TraceEntry>{{7, 8, 9}}));
    std::stringstream blank_first("\xEF\xBB\xBF\nslot,input,destination\n7,8,9\n");
    EXPECT_EQ(read_trace_csv(blank_first),
              (std::vector<TraceEntry>{{7, 8, 9}}));
}

TEST(TraceIo, OnlyOneHeaderRow) {
    // A second header, or a header after data, is a malformed row.
    std::stringstream twice("slot,input,destination\nslot,input,destination\n");
    EXPECT_THROW(read_trace_csv(twice), std::runtime_error);
    std::stringstream late("1,2,3\nslot,input,destination\n");
    EXPECT_THROW(read_trace_csv(late), std::runtime_error);
    // The mark counts only at the very start of the file.
    std::stringstream late_mark("1,2,3\n\xEF\xBB\xBF" "4,5,6\n");
    EXPECT_THROW(read_trace_csv(late_mark), std::runtime_error);
}

TEST(TraceIo, RejectsMalformedRows) {
    std::stringstream missing_field("1,2\n");
    EXPECT_THROW(read_trace_csv(missing_field), std::runtime_error);
    std::stringstream bad_number("1,x,3\n");
    EXPECT_THROW(read_trace_csv(bad_number), std::runtime_error);
}

TEST(Recording, CapturesInnerArrivals) {
    RecordingTraffic rec(std::make_unique<BernoulliUniform>(0.5));
    rec.reset(4, 4, 9);
    std::size_t arrivals = 0;
    for (std::uint64_t t = 0; t < 100; ++t) {
        for (std::size_t i = 0; i < 4; ++i) {
            if (rec.arrival(i, t) != kNoArrival) ++arrivals;
        }
    }
    EXPECT_EQ(rec.entries().size(), arrivals);
    EXPECT_GT(arrivals, 100u);
}

TEST(Recording, ResetClearsTheTape) {
    RecordingTraffic rec(std::make_unique<BernoulliUniform>(1.0));
    rec.reset(2, 2, 1);
    (void)rec.arrival(0, 0);
    rec.reset(2, 2, 1);
    EXPECT_TRUE(rec.entries().empty());
}

TEST(Recording, RejectsNullInner) {
    EXPECT_THROW(RecordingTraffic(nullptr), std::invalid_argument);
}

TEST(Recording, RecordThenReplayReproducesTheSimulationExactly) {
    // Run once with recorded Bernoulli traffic, replay the tape through
    // a fresh simulation: every metric must be bit-identical.
    sim::SimConfig config;
    config.ports = 8;
    config.slots = 3000;
    config.warmup_slots = 300;

    auto recording = std::make_unique<RecordingTraffic>(
        std::make_unique<BernoulliUniform>(0.8));
    RecordingTraffic* tape = recording.get();
    sim::SwitchSim original(config, core::make_scheduler("lcf_central_rr"),
                            std::move(recording));
    const auto first = original.run();

    sim::SwitchSim replayed(
        config, core::make_scheduler("lcf_central_rr"),
        std::make_unique<TraceTraffic>(tape->entries()));
    const auto second = replayed.run();

    EXPECT_EQ(first.generated, second.generated);
    EXPECT_EQ(first.delivered, second.delivered);
    EXPECT_DOUBLE_EQ(first.mean_delay, second.mean_delay);
    EXPECT_DOUBLE_EQ(first.p99_delay, second.p99_delay);
}

}  // namespace
}  // namespace lcf::traffic
