#pragma once
// Traffic generation interface. The paper's Figure 12 uses Bernoulli
// arrivals with uniformly distributed destinations; the other generators
// here support the ablation benches (bursty, pareto, hotspot, diagonal,
// permutation, trace replay).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "util/rng.hpp"

namespace lcf::traffic {

/// Sentinel returned by TrafficGenerator::arrival when no packet arrives.
inline constexpr std::int32_t kNoArrival = -1;

/// One traffic pattern. reset() is called once per simulation with the
/// switch geometry and a seed; arrivals are then drawn once per (slot,
/// input) in nondecreasing slot order — either one input at a time via
/// arrival(), or a whole slot at once via arrivals(). The two entry
/// points draw from the same per-input RNG streams in the same order,
/// so mixing them across slots (not within one slot) is well-defined
/// and a batched run is bit-identical to a scalar one. The stochastic
/// generators get this by construction from PerInputTraffic, which
/// builds both entry points from one per-input draw rule; overriding
/// arrival()/arrivals() directly is for wrappers and trace replay only.
class TrafficGenerator {
public:
    virtual ~TrafficGenerator();

    /// Prepare for a run over an `inputs` × `outputs` switch. Generators
    /// derive independent per-input streams from `seed`. Non-virtual:
    /// records the geometry for arrivals(), then dispatches to do_reset().
    void reset(std::size_t inputs, std::size_t outputs, std::uint64_t seed) {
        do_reset(inputs, outputs, seed);
        inputs_ = inputs;
    }

    /// Destination of the packet generated at `input` in `slot`, or
    /// kNoArrival.
    virtual std::int32_t arrival(std::size_t input, std::uint64_t slot) = 0;

    /// Batch form: out[i] = arrival(i, slot) for every input i in
    /// ascending order, in one virtual dispatch per slot instead of one
    /// per port. `out` must hold at least inputs() entries. Overrides
    /// MUST preserve the per-(input, slot) draw order of arrival() so
    /// batched and scalar runs stay bit-identical (pinned by
    /// Generators.BatchMatchesScalar and the golden SimResult tests).
    virtual void arrivals(std::uint64_t slot, std::int32_t* out);

    /// Inputs configured by the most recent reset() (0 before the first).
    [[nodiscard]] std::size_t inputs() const noexcept { return inputs_; }

    /// Mean offered load per input in [0, 1] (packets per slot).
    [[nodiscard]] virtual double offered_load() const noexcept = 0;

    /// Stable identifier, e.g. "uniform" or "bursty".
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

protected:
    /// Generator-specific part of reset().
    virtual void do_reset(std::size_t inputs, std::size_t outputs,
                          std::uint64_t seed) = 0;

private:
    std::size_t inputs_ = 0;
};

/// Per-input stream state of the memoryless generators.
struct RngPort {
    util::Xoshiro256 rng{0};
};

/// Skeleton of the stochastic generators: one `Port` per input, its
/// `rng` seeded with derive_seed(seed, input), and one draw rule,
/// `Derived::draw(Port&, input)`, from which both arrival() and
/// arrivals() are built. A derived class states its parameters, its
/// pattern name `kName` (returned by name()) and draw(), and may add
/// `configure(inputs, outputs, seed)` for geometry-dependent set-up
/// (run after the geometry check).
template <typename Derived, typename Port = RngPort>
class PerInputTraffic : public TrafficGenerator {
public:
    std::int32_t arrival(std::size_t input, std::uint64_t /*slot*/) final {
        return self().draw(ports_[input], input);
    }

    void arrivals(std::uint64_t /*slot*/, std::int32_t* out) final {
        Derived& gen = self();
        const std::size_t n = ports_.size();
        for (std::size_t i = 0; i < n; ++i) out[i] = gen.draw(ports_[i], i);
    }

    [[nodiscard]] double offered_load() const noexcept final { return load_; }

    [[nodiscard]] std::string_view name() const noexcept final {
        return Derived::kName;
    }

protected:
    double load_;
    std::size_t outputs_ = 0;

private:
    friend Derived;

    explicit PerInputTraffic(double load) : load_(load) {
        if (load < 0.0 || load > 1.0) {
            throw std::invalid_argument("load must be in [0, 1]");
        }
    }

    void do_reset(std::size_t inputs, std::size_t outputs,
                  std::uint64_t seed) final {
        if (inputs == 0 || outputs == 0) {
            // Destinations are drawn below (or reduced modulo) `outputs`,
            // which is undefined for an empty geometry.
            throw std::invalid_argument(
                std::string(Derived::kName) +
                " traffic requires a non-empty switch geometry");
        }
        self().configure(inputs, outputs, seed);
        outputs_ = outputs;
        ports_.assign(inputs, Port{});
        for (std::size_t i = 0; i < inputs; ++i) {
            ports_[i].rng = util::Xoshiro256(util::derive_seed(seed, i));
        }
    }

    // No geometry-dependent set-up unless Derived declares its own.
    void configure(std::size_t /*inputs*/, std::size_t /*outputs*/,
                   std::uint64_t /*seed*/) {}

    Derived& self() noexcept { return static_cast<Derived&>(*this); }

    std::vector<Port> ports_;
};

/// Construct a generator by name (any of traffic_names()). `load` is
/// the per-input offered load. Throws std::invalid_argument for unknown
/// names.
std::unique_ptr<TrafficGenerator> make_traffic(std::string_view name,
                                               double load);

/// All names accepted by make_traffic(), in documentation order.
const std::vector<std::string>& traffic_names();

/// True when `name` is accepted by make_traffic().
bool is_traffic_name(std::string_view name);

}  // namespace lcf::traffic
