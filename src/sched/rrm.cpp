#include "sched/rrm.hpp"

namespace lcf::sched {

RrmScheduler::RrmScheduler(const SchedulerConfig& config)
    : iterations_(config.iterations) {}

void RrmScheduler::reset(std::size_t inputs, std::size_t outputs) {
    grant_ptr_.assign(outputs, 0);
    accept_ptr_.assign(inputs, 0);
}

void RrmScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    grant_to_.assign(n_out, kUnmatched);

    last_iterations_ = 0;
    for (std::size_t iter = 0; iter < iterations_; ++iter) {
        ++last_iterations_;
        bool any_grant = false;
        for (std::size_t j = 0; j < n_out; ++j) {
            grant_to_[j] = kUnmatched;
            if (out.output_matched(j)) continue;
            for (std::size_t k = 0; k < n_in; ++k) {
                const std::size_t i = (grant_ptr_[j] + k) % n_in;
                if (!out.input_matched(i) && requests.get(i, j)) {
                    grant_to_[j] = static_cast<std::int32_t>(i);
                    any_grant = true;
                    break;
                }
            }
        }
        if (!any_grant) break;

        for (std::size_t i = 0; i < n_in; ++i) {
            if (out.input_matched(i)) continue;
            for (std::size_t k = 0; k < n_out; ++k) {
                const std::size_t j = (accept_ptr_[i] + k) % n_out;
                if (grant_to_[j] == static_cast<std::int32_t>(i)) {
                    out.match(i, j);
                    if (iter == 0) {
                        // RRM's defining flaw: pointers advance one
                        // past the *granted/accepted* position whether
                        // or not anything was accepted elsewhere, so
                        // under symmetric load every grant pointer
                        // moves in lock-step.
                        grant_ptr_[j] = (static_cast<std::size_t>(i) + 1) %
                                        n_in;
                        accept_ptr_[i] = (j + 1) % n_out;
                    }
                    break;
                }
            }
        }
        // Unconditional advance for outputs whose grant was NOT
        // accepted — this is what desynchronising iSLIP removes.
        if (iter == 0) {
            for (std::size_t j = 0; j < n_out; ++j) {
                if (grant_to_[j] != kUnmatched &&
                    out.input_of(j) != grant_to_[j]) {
                    grant_ptr_[j] =
                        (static_cast<std::size_t>(grant_to_[j]) + 1) % n_in;
                }
            }
        }
    }
}

}  // namespace lcf::sched
