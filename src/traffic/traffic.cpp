#include "traffic/traffic.hpp"

#include <stdexcept>

#include "traffic/bernoulli.hpp"
#include "traffic/bursty.hpp"
#include "traffic/diagonal.hpp"
#include "traffic/hotspot.hpp"
#include "traffic/pareto.hpp"
#include "traffic/permutation.hpp"

namespace lcf::traffic {

TrafficGenerator::~TrafficGenerator() = default;

void TrafficGenerator::arrivals(std::uint64_t slot, std::int32_t* out) {
    // Generic fallback: one virtual dispatch per input, for wrappers and
    // trace replay. PerInputTraffic builds its own batch loop from the
    // same draw rule as arrival().
    for (std::size_t i = 0; i < inputs_; ++i) out[i] = arrival(i, slot);
}

namespace {

struct Pattern {
    std::string_view name;
    std::unique_ptr<TrafficGenerator> (*make)(double load);
};

/// A generator with its default parameters, under its own name.
template <typename G>
constexpr Pattern pattern() {
    return {G::kName, [](double load) -> std::unique_ptr<TrafficGenerator> {
                return std::make_unique<G>(load);
            }};
}

// The single list of traffic patterns, in documentation order.
constexpr Pattern kPatterns[] = {
    pattern<BernoulliUniform>(), pattern<BurstyTraffic>(),
    pattern<ParetoBurstTraffic>(), pattern<HotspotTraffic>(),
    pattern<DiagonalTraffic>(), pattern<PermutationTraffic>(),
};

const Pattern* find_pattern(std::string_view name) {
    for (const auto& pattern : kPatterns) {
        if (pattern.name == name) return &pattern;
    }
    return nullptr;
}

}  // namespace

std::unique_ptr<TrafficGenerator> make_traffic(std::string_view name,
                                               double load) {
    if (const auto* pattern = find_pattern(name)) return pattern->make(load);
    std::string message = "unknown traffic name: " + std::string(name) +
                          " (valid names:";
    for (const auto& valid : traffic_names()) message += " " + valid;
    throw std::invalid_argument(message + ")");
}

const std::vector<std::string>& traffic_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto& pattern : kPatterns) out.emplace_back(pattern.name);
        return out;
    }();
    return names;
}

bool is_traffic_name(std::string_view name) {
    return find_pattern(name) != nullptr;
}

}  // namespace lcf::traffic
