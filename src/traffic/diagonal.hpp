#pragma once
// Diagonal traffic: input i sends 2/3 of its packets to output i and 1/3
// to output (i+1) mod n. Every output is fully loaded as offered load
// approaches 1, but each input has only two choices — a hard pattern for
// match-size-oriented schedulers and a standard benchmark in the
// input-queued switch literature.

#include "traffic/traffic.hpp"

namespace lcf::traffic {

/// Two-destination diagonal pattern (2/3 to i, 1/3 to i+1).
class DiagonalTraffic final : public PerInputTraffic<DiagonalTraffic> {
public:
    explicit DiagonalTraffic(double load) : PerInputTraffic(load) {}

    static constexpr std::string_view kName = "diagonal";

private:
    friend PerInputTraffic;

    std::int32_t draw(RngPort& port, std::size_t input) {
        if (!port.rng.next_bool(load_)) return kNoArrival;
        const std::size_t dst = port.rng.next_bool(2.0 / 3.0)
                                    ? input % outputs_
                                    : (input + 1) % outputs_;
        return static_cast<std::int32_t>(dst);
    }
};

}  // namespace lcf::traffic
