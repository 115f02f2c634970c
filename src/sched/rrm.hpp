#pragma once
// Round-Robin Matching (RRM) — iSLIP's direct predecessor (McKeown
// 1995): identical request/grant/accept structure and rotating
// pointers, but a grant pointer advances past every first-iteration
// grant, accepted or not. Under uniform full load the grant pointers
// synchronise and throughput collapses toward ~63 %; iSLIP's only
// change (move pointers solely on first-iteration accepts) fixes
// exactly this. Included as an extension baseline so the ablation
// benches can show the synchronisation effect.

#include "sched/iterative_matcher.hpp"

#include <vector>

namespace lcf::sched {

/// RRM with configurable iteration count.
class RrmScheduler final : public IterativeMatcher<RrmScheduler> {
public:
    using IterativeMatcher::IterativeMatcher;

    [[nodiscard]] std::string_view name() const noexcept override {
        return "rrm";
    }

private:
    friend IterativeMatcher;

    void reset_state(std::size_t inputs, std::size_t outputs) {
        grant_ptr_.assign(outputs, 0);
        accept_ptr_.assign(inputs, 0);
    }
    std::size_t grant(std::size_t j, const util::BitVec& candidates,
                      std::size_t iter) {
        const std::size_t i = candidates.find_first_from(grant_ptr_[j]);
        // RRM's defining flaw: the pointer moves whether or not the grant
        // is accepted, so under symmetric load the grant pointers move in
        // lock-step.
        if (iter == 0) grant_ptr_[j] = after(i, candidates.size());
        return i;
    }
    std::size_t accept(std::size_t i, const util::BitVec& granting,
                       std::size_t iter) {
        const std::size_t j = granting.find_first_from(accept_ptr_[i]);
        if (iter == 0) accept_ptr_[i] = after(j, granting.size());
        return j;
    }

    std::vector<std::size_t> grant_ptr_;   // per-output, < inputs
    std::vector<std::size_t> accept_ptr_;  // per-input, < outputs
};

}  // namespace lcf::sched
