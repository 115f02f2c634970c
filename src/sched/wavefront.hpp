#pragma once
// Wrapped Wave Front Arbiter (Tamir & Chi 1993): the request matrix is
// swept as n wrapped diagonals; the cells of one wrapped diagonal touch
// distinct rows and columns, so a hardware array evaluates each diagonal
// in a single step and the whole schedule in n steps. The diagonal that
// is swept first rotates every slot, which provides round-robin fairness.

#include "sched/scheduler.hpp"

#include <vector>

#include "util/bitvec.hpp"

namespace lcf::sched {

/// Wrapped wavefront arbiter (`wfront` in the paper's Figure 12).
///
/// At sweep step s, row i meets the cell in column
/// (first + s − i mod n_out) mod n_out, so each row walks its own
/// request vector in rotated order. The software sweep therefore files
/// every row under the step of its first requested cell
/// (`find_first_from` on the row) and visits the steps in order, rows
/// of one step in ascending order, exactly as the naive full scan
/// does. A row whose output was taken by an earlier cell moves on to
/// the step of its next requested output that is still free; with
/// more inputs than outputs, two rows of one diagonal share an output,
/// so that check stays. Steps where a row has no request, or only
/// taken outputs, cost nothing.
class WavefrontScheduler final : public Scheduler {
public:
    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const RequestMatrix& requests, Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "wfront";
    }

private:
    std::size_t priority_diag_ = 0;        // diagonal swept first this slot
    std::vector<util::BitVec> step_rows_;  // scratch: rows due at each step
    util::BitVec free_outputs_;            // scratch: outputs not yet matched
    util::BitVec candidates_;              // scratch: a row's free requests
};

}  // namespace lcf::sched
