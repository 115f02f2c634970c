#pragma once
// Iterative Longest Queue First (iLQF, McKeown 1995) — the natural
// counterpoint to Least Choice First: where LCF grants the input with
// the *fewest alternatives*, iLQF grants the input whose VOQ for the
// contested output is *longest*, draining backlog hot spots first.
// Implemented as a request/grant/accept matcher like PIM/iSLIP, with
// queue lengths as both grant and accept weights and rotating chains
// breaking ties. Included as an extension baseline (not in the paper's
// Figure 12) for the bench ablations.

#include "sched/iterative_matcher.hpp"

#include <cstdint>
#include <span>
#include <vector>

namespace lcf::sched {

/// iLQF with configurable iteration count. When no queue-length
/// snapshot has been observed since reset() (standalone use on bare
/// request matrices), every request weighs 1 and the scheduler
/// degenerates to rotating-priority request/grant/accept matching.
class IlqfScheduler final : public IterativeMatcher<IlqfScheduler> {
public:
    using IterativeMatcher::IterativeMatcher;

    [[nodiscard]] std::string_view name() const noexcept override {
        return "ilqf";
    }
    [[nodiscard]] bool wants_queue_lengths() const noexcept override {
        return true;
    }
    void observe_queue_lengths(std::span<const std::uint32_t> lengths,
                               std::size_t outputs) override {
        outputs_ = outputs;
        lengths_.assign(lengths.begin(), lengths.end());
    }

private:
    friend IterativeMatcher;

    void reset_state(std::size_t /*inputs*/, std::size_t outputs) {
        outputs_ = outputs;
        lengths_.clear();
    }
    // Output j grants its longest-VOQ candidate; ties go to the first
    // in rotated order from (cycle + j).
    std::size_t grant(std::size_t j, const util::BitVec& candidates,
                      std::size_t /*iter*/) const {
        return heaviest(candidates, (cycle() + j) % candidates.size(),
                        [&](std::size_t i) { return weight(i, j); });
    }
    // Input i accepts its longest-VOQ granting output; ties go to the
    // first in rotated order from (cycle + i).
    std::size_t accept(std::size_t i, const util::BitVec& granting,
                       std::size_t /*iter*/) const {
        return heaviest(granting, (cycle() + i) % granting.size(),
                        [&](std::size_t j) { return weight(i, j); });
    }

    [[nodiscard]] std::uint32_t weight(std::size_t input,
                                       std::size_t output) const noexcept {
        if (lengths_.empty()) return 1;  // standalone use: unweighted
        return lengths_[input * outputs_ + output];
    }
    // The set bit of `ports` with the largest weight; among equals, the
    // first in rotated order from `start`.
    template <typename Weight>
    static std::size_t heaviest(const util::BitVec& ports, std::size_t start,
                                Weight weight_of) {
        const std::size_t first = ports.find_first_from(start);
        std::size_t best = first;
        for (std::size_t k = ports.find_first_from(after(first, ports.size()));
             k != first; k = ports.find_first_from(after(k, ports.size()))) {
            if (weight_of(k) > weight_of(best)) best = k;
        }
        return best;
    }

    std::size_t outputs_ = 0;             // row stride of lengths_
    std::vector<std::uint32_t> lengths_;  // row-major snapshot, may be empty
};

}  // namespace lcf::sched
