#pragma once
// Reference (pre-optimization) implementations of the central and
// distributed LCF schedulers: straightforward per-bit transcriptions of
// the paper's pseudocode, kept verbatim from the first working version
// of this library.
//
// The word-parallel schedulers in core/lcf_central.hpp and
// core/lcf_dist.hpp must produce bit-identical matchings to these: the
// equivalence property suite (tests/test_sched_equivalence.cpp) pins
// every optimization to the paper's semantics via these twins, and
// bench_sched_speed reports them as the "before" lines of the committed
// perf baseline. They live in the test-only lcf_oracles library, which
// no installed library links, and are reached through
// oracle::make_twin() (oracles/twin.hpp), never by scheduler name.

#include "sched/scheduler.hpp"

#include <vector>

#include "core/lcf_central.hpp"
#include "core/lcf_dist.hpp"
#include "core/precalc.hpp"
#include "util/bitvec.hpp"

namespace lcf::core {

/// Reference central LCF scheduler: per-bit scans, O(n²) per cycle with
/// a rotation modulo per candidate probe (`lcf_central_reference` and
/// the rr variants' `*_reference` twins).
class LcfCentralReferenceScheduler final : public sched::Scheduler {
public:
    explicit LcfCentralReferenceScheduler(const LcfCentralOptions& options = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override;
    [[nodiscard]] bool diagonal_fairness() const noexcept override {
        return options_.variant != RrVariant::kNone;
    }

    /// Two-stage precalculated scheduling, mirroring
    /// LcfCentralScheduler::schedule_with_precalc().
    void schedule_with_precalc(const sched::RequestMatrix& requests,
                               const PrecalcSchedule& precalc,
                               MulticastResult& out);

private:
    void run_lcf(const sched::RequestMatrix& requests,
                 const util::BitVec* busy_inputs,
                 const util::BitVec* busy_outputs, sched::Matching& out);
    void advance_diagonal() noexcept;

    LcfCentralOptions options_;
    std::size_t rr_input_ = 0;
    std::size_t rr_output_ = 0;
    std::vector<util::BitVec> scratch_rows_;
    std::vector<std::size_t> nrq_;
};

/// Reference distributed LCF scheduler: the request/grant/accept loops
/// test every (input, output) bit through a rotated index
/// (`lcf_dist_reference` / `lcf_dist_rr_reference`).
class LcfDistReferenceScheduler final : public sched::Scheduler {
public:
    explicit LcfDistReferenceScheduler(const LcfDistOptions& options = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return options_.round_robin ? "lcf_dist_rr_reference"
                                    : "lcf_dist_reference";
    }

    std::size_t iterate(const sched::RequestMatrix& requests,
                        std::size_t iterations, sched::Matching& out) const;

    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return options_.iterations;
    }

private:
    LcfDistOptions options_;
    std::size_t rr_input_ = 0;
    std::size_t rr_output_ = 0;
    std::size_t cycle_ = 0;
    std::size_t last_iterations_ = 0;
};

}  // namespace lcf::core
