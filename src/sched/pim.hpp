#pragma once
// Parallel Iterative Matching (Anderson, Owicki, Saxe, Thacker 1993):
// iterative request / grant / accept with *uniform random* selection at
// both the grant and accept steps. The direct ancestor of the distributed
// LCF scheduler, which replaces randomness with request-count priorities.

#include "sched/iterative_matcher.hpp"

#include <cstdint>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace lcf::sched {

/// PIM with a configurable iteration count (paper's Figure 12 uses 4).
///
/// A grant is a reservoir draw over the contenders, visited in ascending
/// order, so it makes the same random draws as a per-bit scan of the
/// column. An accept draws once among the granting outputs, and not at
/// all when there is only one.
class PimScheduler final : public IterativeMatcher<PimScheduler> {
public:
    explicit PimScheduler(const SchedulerConfig& config = {})
        : IterativeMatcher(config), rng_(config.seed), seed_(config.seed) {}

    [[nodiscard]] std::string_view name() const noexcept override {
        return "pim";
    }

private:
    friend IterativeMatcher;

    void reset_state(std::size_t inputs, std::size_t /*outputs*/) {
        rng_ = util::Xoshiro256(seed_);
        grants_.assign(inputs, 0);
    }
    std::size_t grant(std::size_t /*j*/, const util::BitVec& candidates,
                      std::size_t /*iter*/) {
        std::size_t chosen = 0;
        std::uint64_t seen = 0;
        for (const std::size_t i : candidates.set_bits()) {
            if (rng_.next_below(++seen) == 0) chosen = i;
        }
        ++grants_[chosen];
        return chosen;
    }
    std::size_t accept(std::size_t i, const util::BitVec& granting,
                       std::size_t /*iter*/) {
        const std::size_t count = std::exchange(grants_[i], 0);
        std::size_t pick =
            count == 1 ? 0 : static_cast<std::size_t>(rng_.next_below(count));
        for (const std::size_t j : granting.set_bits()) {
            if (pick-- == 0) return j;
        }
        return util::BitVec::npos;  // unreachable: `count` bits are set
    }

    util::Xoshiro256 rng_;
    std::uint64_t seed_;
    std::vector<std::size_t> grants_;  // per input: grants this iteration
};

}  // namespace lcf::sched
