#include "sched/wavefront.hpp"

#include <cassert>

namespace lcf::sched {

void WavefrontScheduler::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    priority_diag_ = 0;
}

void WavefrontScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    if (n_in == 0 || n_out == 0) return;

    // Wrapped diagonal d holds cells (i, j) with (i + j) mod n_out == d
    // (square switches in practice; rectangular ones sweep per-row).
    // Row i meets column start(i) at step 0 and the next column, with
    // wraparound, at every later step.
    if (step_rows_.size() != n_out || step_rows_[0].size() != n_in) {
        step_rows_.assign(n_out, util::BitVec(n_in));
        free_outputs_ = util::BitVec(n_out);
        candidates_ = util::BitVec(n_out);
    }
    free_outputs_.fill();
    const std::size_t first = priority_diag_ % n_out;
    const auto start_of = [&](std::size_t i) {
        const std::size_t offset = i < n_out ? i : i % n_out;
        return first >= offset ? first - offset : first + n_out - offset;
    };
    const auto step_of = [&](std::size_t j, std::size_t start) {
        return j >= start ? j - start : j + n_out - start;
    };

    for (std::size_t i = 0; i < n_in; ++i) {
        const std::size_t start = start_of(i);
        const std::size_t j = requests.row(i).find_first_from(start);
        if (j != util::BitVec::npos) step_rows_[step_of(j, start)].set(i);
    }
    for (std::size_t step = 0; step < n_out; ++step) {
        util::BitVec& rows = step_rows_[step];
        for (const std::size_t i : rows.set_bits()) {
            const std::size_t start = start_of(i);
            const std::size_t j =
                start + step < n_out ? start + step : start + step - n_out;
            if (free_outputs_.test(j)) {
                out.match(i, j);
                free_outputs_.reset(j);
                continue;
            }
            // Output j went to an earlier cell. The row's next chance is
            // its next free requested output; j itself is no longer
            // free, so the scan begins after it. That output lies at a
            // later step: outputs are never freed, so every requested
            // output the row passed on the way here is still taken.
            candidates_.assign_and(requests.row(i), free_outputs_);
            const std::size_t next = candidates_.find_first_from(j);
            if (next == util::BitVec::npos) continue;
            const std::size_t later = step_of(next, start);
            assert(later > step);
            step_rows_[later].set(i);
        }
        rows.clear();
    }
    priority_diag_ = (priority_diag_ + 1) % n_out;
}

}  // namespace lcf::sched
