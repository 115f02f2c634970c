#pragma once
// Round-Robin Matching (RRM) — iSLIP's direct predecessor (McKeown
// 1995): identical request/grant/accept structure and rotating
// pointers, but the pointers advance *unconditionally* past the
// granted/accepted position every cycle. Under uniform full load the
// grant pointers synchronise and throughput collapses toward ~63 %;
// iSLIP's only change (move pointers solely on first-iteration
// accepts) fixes exactly this. Included as an extension baseline so
// the ablation benches can show the synchronisation effect.

#include "sched/scheduler.hpp"

#include <vector>

namespace lcf::sched {

/// RRM with configurable iteration count.
class RrmScheduler final : public Scheduler {
public:
    explicit RrmScheduler(const SchedulerConfig& config = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const RequestMatrix& requests, Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "rrm";
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
    std::vector<std::size_t> grant_ptr_;   // per-output
    std::vector<std::size_t> accept_ptr_;  // per-input
    std::vector<std::int32_t> grant_to_;   // scratch
};

}  // namespace lcf::sched
