#pragma once
// Reference (pre-optimization) implementations of the central and
// distributed LCF schedulers: straightforward per-bit transcriptions of
// the paper's pseudocode, kept verbatim from the first working version
// of this library.
//
// The word-parallel schedulers in lcf_central.hpp / lcf_dist.hpp must
// produce bit-identical matchings to these — the equivalence property
// suite (tests/test_sched_equivalence.cpp) pins every optimization to
// the paper's semantics via these twins, and bench_sched_speed reports
// them as the "before" lines of the committed perf baseline. They are
// constructible through the factory under the `*_reference` names but
// are deliberately kept out of scheduler_names() so sweeps and figure
// harnesses do not pay for them.

#include "sched/scheduler.hpp"

#include <cstdint>
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

    [[nodiscard]] std::pair<std::size_t, std::size_t> diagonal() const noexcept {
        return {rr_input_, rr_output_};
    }
    void set_diagonal(std::size_t input_offset, std::size_t output_offset) noexcept;

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

    void set_rr_position(std::size_t input, std::size_t output) noexcept {
        rr_input_ = input;
        rr_output_ = output;
    }

private:
    LcfDistOptions options_;
    std::size_t rr_input_ = 0;
    std::size_t rr_output_ = 0;
    std::size_t cycle_ = 0;
    std::size_t last_iterations_ = 0;
};

}  // namespace lcf::core
