#pragma once
// Bernoulli arrivals with uniformly distributed destinations — the
// traffic model of the paper's Figure 12 ("Load is the probability that
// a host generates a packet in a given time slot. The destinations of
// the packets are uniformly distributed.").

#include "traffic/traffic.hpp"

namespace lcf::traffic {

/// i.i.d. Bernoulli(load) arrivals, destination uniform over all outputs
/// (self-traffic included; see DESIGN.md §6.4).
class BernoulliUniform final : public PerInputTraffic<BernoulliUniform> {
public:
    explicit BernoulliUniform(double load) : PerInputTraffic(load) {}

    static constexpr std::string_view kName = "uniform";

private:
    friend PerInputTraffic;

    std::int32_t draw(RngPort& port, std::size_t /*input*/) {
        if (!port.rng.next_bool(load_)) return kNoArrival;
        return static_cast<std::int32_t>(port.rng.next_below(outputs_));
    }
};

}  // namespace lcf::traffic
