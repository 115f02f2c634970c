#pragma once
// Permutation traffic: each input sends all of its packets to one fixed
// distinct output (a random permutation drawn at reset). Contention-free
// by construction, so any work-conserving scheduler should sustain full
// load — a useful sanity baseline.

#include "traffic/traffic.hpp"

#include <vector>

namespace lcf::traffic {

/// Bernoulli arrivals along a fixed random permutation.
class PermutationTraffic final : public PerInputTraffic<PermutationTraffic> {
public:
    explicit PermutationTraffic(double load) : PerInputTraffic(load) {}

    static constexpr std::string_view kName = "permutation";

    /// Destination assigned to `input` (exposed for tests).
    [[nodiscard]] std::size_t destination_of(std::size_t input) const {
        return perm_[input];
    }

private:
    friend PerInputTraffic;

    void configure(std::size_t inputs, std::size_t outputs,
                   std::uint64_t seed);

    std::int32_t draw(RngPort& port, std::size_t input) {
        if (!port.rng.next_bool(load_)) return kNoArrival;
        return static_cast<std::int32_t>(perm_[input]);
    }

    std::vector<std::size_t> perm_;
};

}  // namespace lcf::traffic
