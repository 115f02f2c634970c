#pragma once
// Test-only oracles for the Figure-12 baselines: the per-bit bodies of
// iSLIP, PIM, the wrapped wavefront arbiter and FIFO round-robin exactly
// as they stood before the library versions were rewritten on the
// RequestMatrix column view and BitVec scans. Every candidate is probed
// with requests.get(i, j) in rotated order, which makes them slow but
// transparently faithful to the published pseudocode. The equivalence
// suite runs each library scheduler against its oracle and requires
// bit-identical matchings. Like the LCF twins, they are reached through
// oracle::make_twin() and ship in no installed library.

#include <cstdint>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace lcf::oracle {

/// Per-bit iSLIP (McKeown 1999).
class IslipOracle final : public sched::Scheduler {
public:
    explicit IslipOracle(const sched::SchedulerConfig& config = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "islip_oracle";
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
    std::vector<std::size_t> grant_ptr_;
    std::vector<std::size_t> accept_ptr_;
    std::vector<std::int32_t> grant_to_;
};

/// Per-bit PIM (Anderson et al. 1993).
class PimOracle final : public sched::Scheduler {
public:
    explicit PimOracle(const sched::SchedulerConfig& config = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "pim_oracle";
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
    util::Xoshiro256 rng_;
    std::uint64_t seed_;
    std::vector<std::vector<std::int32_t>> grants_;
};

/// Free-row sweep of the wrapped wavefront arbiter (Tamir & Chi 1993).
class WavefrontOracle final : public sched::Scheduler {
public:
    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "wfront_oracle";
    }

private:
    std::size_t priority_diag_ = 0;
    util::BitVec free_inputs_;
};

/// Per-bit round-robin arbitration over head-of-line requests.
class FifoRrOracle final : public sched::Scheduler {
public:
    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "fifo_oracle";
    }

private:
    std::vector<std::size_t> grant_ptr_;
};

}  // namespace lcf::oracle
