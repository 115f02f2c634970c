#pragma once
// Hotspot traffic: a configurable fraction of all packets target one hot
// output port; the remainder are uniform. Stresses the schedulers'
// behaviour under asymmetric contention.

#include "traffic/traffic.hpp"

namespace lcf::traffic {

/// Bernoulli arrivals; destination is the hotspot with probability
/// `hot_fraction`, otherwise uniform over all outputs.
class HotspotTraffic final : public PerInputTraffic<HotspotTraffic> {
public:
    HotspotTraffic(double load, double hot_fraction = 0.3,
                   std::size_t hot_port = 0)
        : PerInputTraffic(load),
          hot_fraction_(hot_fraction),
          hot_port_(hot_port) {
        if (hot_fraction < 0.0 || hot_fraction > 1.0) {
            throw std::invalid_argument("hot_fraction must be in [0, 1]");
        }
    }

    static constexpr std::string_view kName = "hotspot";

private:
    friend PerInputTraffic;

    void configure(std::size_t /*inputs*/, std::size_t outputs,
                   std::uint64_t /*seed*/) const {
        if (hot_port_ >= outputs) {
            throw std::invalid_argument("hot_port out of range");
        }
    }

    std::int32_t draw(RngPort& port, std::size_t /*input*/) {
        if (!port.rng.next_bool(load_)) return kNoArrival;
        if (port.rng.next_bool(hot_fraction_)) {
            return static_cast<std::int32_t>(hot_port_);
        }
        return static_cast<std::int32_t>(port.rng.next_below(outputs_));
    }

    double hot_fraction_;
    std::size_t hot_port_;
};

}  // namespace lcf::traffic
