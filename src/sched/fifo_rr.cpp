#include "sched/fifo_rr.hpp"

namespace lcf::sched {

void FifoRrScheduler::reset(std::size_t /*inputs*/, std::size_t outputs) {
    grant_ptr_.assign(outputs, 0);
}

void FifoRrScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    // A shape change without reset() starts from fresh pointers, which
    // keeps every pointer below n_in as the rotated scan requires.
    if (grant_ptr_.size() != n_out || free_inputs_.size() != n_in) {
        reset(n_in, n_out);
        free_inputs_ = util::BitVec(n_in);
        candidates_ = util::BitVec(n_in);
    }
    // In FIFO mode each input requests at most its head-of-line
    // destination, so grants never conflict on the input side. The
    // matched-input mask makes the arbiter well-defined on general
    // request matrices too (it then acts as a greedy row-exclusive
    // round-robin arbiter).
    free_inputs_.fill();
    for (std::size_t j = 0; j < n_out; ++j) {
        candidates_.assign_and(requests.col(j), free_inputs_);
        const std::size_t i = candidates_.find_first_from(grant_ptr_[j]);
        if (i == util::BitVec::npos) continue;
        out.match(i, j);
        free_inputs_.reset(i);
        grant_ptr_[j] = i + 1 == n_in ? 0 : i + 1;
    }
}

}  // namespace lcf::sched
