#include "sched/islip.hpp"

namespace lcf::sched {

IslipScheduler::IslipScheduler(const SchedulerConfig& config)
    : iterations_(config.iterations) {}

void IslipScheduler::reset(std::size_t inputs, std::size_t outputs) {
    grant_ptr_.assign(outputs, 0);
    accept_ptr_.assign(inputs, 0);
}

void IslipScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    // A shape change without reset() starts from fresh pointers, which
    // keeps every pointer below its radix as the rotated scans require.
    if (grant_ptr_.size() != n_out || accept_ptr_.size() != n_in ||
        free_inputs_.size() != n_in || free_outputs_.size() != n_out) {
        reset(n_in, n_out);
        free_inputs_ = util::BitVec(n_in);
        free_outputs_ = util::BitVec(n_out);
        granted_inputs_ = util::BitVec(n_in);
        candidates_ = util::BitVec(n_in);
        granted_by_.assign(n_in, util::BitVec(n_out));
    }
    free_inputs_.fill();
    free_outputs_.fill();

    last_iterations_ = 0;
    for (std::size_t iter = 0; iter < iterations_; ++iter) {
        ++last_iterations_;
        // Grant: each unmatched output grants the first unmatched
        // requesting input at or after its pointer. Pointers are NOT
        // moved here; they move only on first-iteration accepts.
        for (const std::size_t j : free_outputs_.set_bits()) {
            candidates_.assign_and(requests.col(j), free_inputs_);
            const std::size_t i = candidates_.find_first_from(grant_ptr_[j]);
            if (i == util::BitVec::npos) continue;
            granted_inputs_.set(i);
            granted_by_[i].set(j);
        }
        if (granted_inputs_.none()) break;

        // Accept: each granted input accepts the first granting output
        // at or after its accept pointer.
        for (const std::size_t i : granted_inputs_.set_bits()) {
            const std::size_t j = granted_by_[i].find_first_from(accept_ptr_[i]);
            granted_by_[i].clear();
            out.match(i, j);
            free_inputs_.reset(i);
            free_outputs_.reset(j);
            if (iter == 0) {
                grant_ptr_[j] = i + 1 == n_in ? 0 : i + 1;
                accept_ptr_[i] = j + 1 == n_out ? 0 : j + 1;
            }
        }
        granted_inputs_.clear();
    }
}

}  // namespace lcf::sched
