#pragma once
// iSLIP (McKeown 1999): iterative request / grant / accept with rotating
// priority pointers instead of PIM's randomness. Grant pointers (one per
// output) and accept pointers (one per input) advance one position beyond
// the granted/accepted port, and only when the match was made in the
// first iteration — the property that desynchronises the pointers and
// yields 100 % throughput under uniform traffic.

#include "sched/iterative_matcher.hpp"

#include <vector>

namespace lcf::sched {

/// iSLIP with a configurable iteration count. Grant and accept are the
/// first set bit at or after the pointer: the rotated scans of the
/// per-bit pseudocode, a word at a time.
class IslipScheduler final : public IterativeMatcher<IslipScheduler> {
public:
    using IterativeMatcher::IterativeMatcher;

    [[nodiscard]] std::string_view name() const noexcept override {
        return "islip";
    }

private:
    friend IterativeMatcher;

    void reset_state(std::size_t inputs, std::size_t outputs) {
        grant_ptr_.assign(outputs, 0);
        accept_ptr_.assign(inputs, 0);
    }
    std::size_t grant(std::size_t j, const util::BitVec& candidates,
                      std::size_t /*iter*/) const {
        return candidates.find_first_from(grant_ptr_[j]);
    }
    std::size_t accept(std::size_t i, const util::BitVec& granting,
                       std::size_t iter) {
        const std::size_t j = granting.find_first_from(accept_ptr_[i]);
        if (iter == 0) {
            grant_ptr_[j] = after(i, accept_ptr_.size());
            accept_ptr_[i] = after(j, grant_ptr_.size());
        }
        return j;
    }

    std::vector<std::size_t> grant_ptr_;   // per-output g[j], < inputs
    std::vector<std::size_t> accept_ptr_;  // per-input a[i], < outputs
};

}  // namespace lcf::sched
