#pragma once
// Two-state (on/off) Markov-modulated bursty traffic. During an ON burst
// the input generates one packet per slot, all to the same destination;
// OFF periods are idle. Burst and idle lengths are geometric with means
// chosen so the long-run offered load equals the configured value — the
// classic model for evaluating VOQ schedulers under correlated arrivals.

#include "traffic/traffic.hpp"

namespace lcf::traffic {

/// Per-input state of an on/off source.
struct BurstPort {
    util::Xoshiro256 rng{0};
    bool on = false;
    std::int32_t burst_dst = 0;
};

/// On/off bursty traffic with geometric burst lengths.
class BurstyTraffic final : public PerInputTraffic<BurstyTraffic, BurstPort> {
public:
    /// `mean_burst` is the average ON period in packets (>= 1).
    BurstyTraffic(double load, double mean_burst = 16.0);

    static constexpr std::string_view kName = "bursty";

private:
    friend PerInputTraffic;

    std::int32_t draw(BurstPort& p, std::size_t /*input*/) {
        if (!p.on) {
            if (!p.rng.next_bool(p_start_burst_)) return kNoArrival;
            p.on = true;
            p.burst_dst = static_cast<std::int32_t>(p.rng.next_below(outputs_));
        }
        const std::int32_t dst = p.burst_dst;
        if (p.rng.next_bool(p_end_burst_)) p.on = false;
        return dst;
    }

    double p_end_burst_;   // P(burst ends after a slot)
    double p_start_burst_; // P(idle ends after a slot)
};

}  // namespace lcf::traffic
