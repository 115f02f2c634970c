#pragma once
// The request / grant / accept loop of the iterative matchers (PIM,
// iSLIP, RRM, iLQF). In each iteration every unmatched output grants one
// of its unmatched requesters, and every input holding grants accepts
// one of them. The loop ends after the iteration budget, or after the
// first iteration in which no output grants. An algorithm is its grant
// rule, its accept rule and the state those rules keep.

#include "sched/scheduler.hpp"

#include <vector>

#include "util/bitvec.hpp"

namespace lcf::sched {

/// CRTP skeleton. `Rules` derives from IterativeMatcher<Rules> and
/// provides `reset_state(inputs, outputs)`, its part of reset(), and:
///   - `grant(j, candidates, iter)`: the input output j grants, from
///     its candidates col(j) ∧ free inputs (never empty);
///   - `accept(i, granting, iter)`: the output input i accepts, from the
///     outputs granting it (never empty).
/// Outputs grant and inputs accept in ascending order, so rules that
/// draw random numbers draw them in a fixed order.
template <typename Rules>
class IterativeMatcher : public Scheduler {
public:
    explicit IterativeMatcher(const SchedulerConfig& config = {})
        : iterations_(config.iterations) {}

    void reset(std::size_t inputs, std::size_t outputs) final {
        free_inputs_ = util::BitVec(inputs);
        free_outputs_ = util::BitVec(outputs);
        candidates_ = util::BitVec(inputs);
        granted_inputs_ = util::BitVec(inputs);
        granted_by_.assign(inputs, util::BitVec(outputs));
        cycle_ = 0;
        static_cast<Rules&>(*this).reset_state(inputs, outputs);
    }

    void schedule(const RequestMatrix& requests, Matching& out) final {
        Rules& rules = static_cast<Rules&>(*this);
        const std::size_t n_in = requests.inputs();
        const std::size_t n_out = requests.outputs();
        out.reset(n_in, n_out);
        // A shape change without reset() is a reset(), which keeps every
        // pointer of the rules below its radix.
        if (free_inputs_.size() != n_in || free_outputs_.size() != n_out) {
            reset(n_in, n_out);
        }
        free_inputs_.fill();
        free_outputs_.fill();

        last_iterations_ = 0;
        for (std::size_t iter = 0; iter < iterations_; ++iter) {
            ++last_iterations_;
            for (const std::size_t j : free_outputs_.set_bits()) {
                candidates_.assign_and(requests.col(j), free_inputs_);
                if (candidates_.none()) continue;
                const std::size_t i = rules.grant(j, candidates_, iter);
                granted_inputs_.set(i);
                granted_by_[i].set(j);
            }
            if (granted_inputs_.none()) break;

            for (const std::size_t i : granted_inputs_.set_bits()) {
                const std::size_t j = rules.accept(i, granted_by_[i], iter);
                granted_by_[i].clear();
                out.match(i, j);
                free_inputs_.reset(i);
                free_outputs_.reset(j);
            }
            granted_inputs_.clear();
        }
        ++cycle_;
    }

    [[nodiscard]] std::size_t last_iterations() const noexcept final {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept final {
        return iterations_;
    }

protected:
    /// schedule() calls since the last reset(); 0 during the first.
    [[nodiscard]] std::size_t cycle() const noexcept { return cycle_; }
    /// The port after `port` in a rotation over `ports` ports.
    [[nodiscard]] static std::size_t after(std::size_t port,
                                           std::size_t ports) noexcept {
        return port + 1 == ports ? 0 : port + 1;
    }

private:
    std::size_t iterations_;
    std::size_t last_iterations_ = 0;
    std::size_t cycle_ = 0;
    // Scratch reused across slots.
    util::BitVec free_inputs_;
    util::BitVec free_outputs_;
    util::BitVec candidates_;
    util::BitVec granted_inputs_;           // inputs granted this iteration
    std::vector<util::BitVec> granted_by_;  // per input: outputs granting it
};

}  // namespace lcf::sched
