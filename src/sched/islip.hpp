#pragma once
// iSLIP (McKeown 1999): iterative request / grant / accept with rotating
// priority pointers instead of PIM's randomness. Grant pointers (one per
// output) and accept pointers (one per input) advance one position beyond
// the granted/accepted port, and only when the match was made in the
// first iteration — the property that desynchronises the pointers and
// yields 100 % throughput under uniform traffic.

#include "sched/scheduler.hpp"

#include <vector>

#include "util/bitvec.hpp"

namespace lcf::sched {

/// iSLIP with a configurable iteration count.
///
/// Word-parallel: an output's grant is the first set bit at or after its
/// pointer in col(j) ∧ free inputs, and an input's accept is the first
/// set bit at or after its pointer in the vector of outputs that granted
/// it — the same rotated scans as the per-bit pseudocode, a word at a
/// time.
class IslipScheduler final : public Scheduler {
public:
    explicit IslipScheduler(const SchedulerConfig& config = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const RequestMatrix& requests, Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "islip";
    }
    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return iterations_;
    }

private:
    std::size_t iterations_;
    std::size_t last_iterations_ = 0;
    std::vector<std::size_t> grant_ptr_;   // per-output g[j], < inputs
    std::vector<std::size_t> accept_ptr_;  // per-input a[i], < outputs
    // Scratch reused across slots.
    util::BitVec free_inputs_;
    util::BitVec free_outputs_;
    util::BitVec granted_inputs_;           // inputs granted this iteration
    std::vector<util::BitVec> granted_by_;  // per input: outputs granting it
    util::BitVec candidates_;
};

}  // namespace lcf::sched
