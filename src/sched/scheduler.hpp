#pragma once
// Abstract interface every switch scheduler implements: given the request
// matrix of one scheduling cycle, compute a conflict-free matching.
// Schedulers are stateful across cycles (round-robin pointers, rotating
// diagonals), which is why reset() exists and instances are not shared
// between concurrently simulated switches.

#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>

#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"

namespace lcf::sched {

/// Per-scheduler configuration knobs. Only the fields a given algorithm
/// uses are consulted; the rest are ignored.
struct SchedulerConfig {
    /// Iteration count for iterative matchers (PIM, iSLIP, RRM, iLQF,
    /// distributed LCF). The paper's Figure 12 uses 4.
    std::size_t iterations = 4;
    /// Seed for randomized algorithms (PIM).
    std::uint64_t seed = 1;
};

/// One switch scheduler. schedule() must produce a matching that is valid
/// for the given request matrix (every matched pair backed by a request);
/// all algorithms in this library additionally produce *maximal* matchings
/// except iteration-limited iterative ones.
class Scheduler {
public:
    virtual ~Scheduler();

    /// Prepare for a fresh simulation over an inputs × outputs switch.
    /// Clears all round-robin state.
    virtual void reset(std::size_t inputs, std::size_t outputs) = 0;

    /// Compute the matching for one time slot. `out` is resized by the
    /// implementation; `requests` reflects VOQ occupancy this slot.
    virtual void schedule(const RequestMatrix& requests, Matching& out) = 0;

    /// Stable identifier, e.g. "islip" or "lcf_central_rr"; matches the
    /// names used in the paper's Figure 12 legend.
    [[nodiscard]] virtual std::string_view name() const noexcept = 0;

    /// Iterations executed by the most recent schedule() call (1 for
    /// single-pass algorithms). Iterative matchers override this so the
    /// observability layer can verify they respect their budget.
    [[nodiscard]] virtual std::size_t last_iterations() const noexcept {
        return 1;
    }
    /// Configured iteration cap, or 0 when the algorithm is not
    /// iteration-limited.
    [[nodiscard]] virtual std::size_t iteration_limit() const noexcept {
        return 0;
    }
    /// True for the rotating-diagonal LCF variants, which promise §3's
    /// guarantee: a continuously asserted request is granted within n²
    /// cycles. The ParanoidChecker enforces it for these.
    [[nodiscard]] virtual bool diagonal_fairness() const noexcept {
        return false;
    }

    /// Weight-aware schedulers (e.g. iLQF) return true; the simulator
    /// then calls observe_queue_lengths() before every schedule().
    [[nodiscard]] virtual bool wants_queue_lengths() const noexcept {
        return false;
    }
    /// Row-major inputs × outputs VOQ occupancy snapshot; `outputs` is
    /// the row stride. Only called when wants_queue_lengths() is true.
    /// The span is valid only for the duration of the call.
    virtual void observe_queue_lengths(std::span<const std::uint32_t> lengths,
                                       std::size_t outputs);
};

}  // namespace lcf::sched
