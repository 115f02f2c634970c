#pragma once
// Test-only oracles for the baselines: the per-bit bodies of iSLIP, PIM,
// the wrapped wavefront arbiter, FIFO round-robin, RRM and iLQF exactly
// as they stood before the library versions were rewritten on the
// RequestMatrix column view and BitVec scans (RRM and iLQF onto the one
// request-grant-accept loop of sched/iterative_matcher.hpp). Every candidate is probed
// with requests.get(i, j) in rotated order, which makes them slow but
// transparently faithful to the published pseudocode. The equivalence
// suite runs each library scheduler against its oracle and requires
// bit-identical matchings. Like the LCF twins, they are reached through
// oracle::make_twin() and ship in no installed library.

#include <cstdint>
#include <span>
#include <vector>

#include "sched/scheduler.hpp"
#include "util/bitvec.hpp"
#include "util/rng.hpp"

namespace lcf::oracle {

/// The iteration budget and count every iterative oracle reports.
class IterativeOracle : public sched::Scheduler {
public:
    explicit IterativeOracle(const sched::SchedulerConfig& config = {})
        : iterations_(config.iterations) {}

    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return iterations_;
    }

protected:
    std::size_t iterations_;
    std::size_t last_iterations_ = 0;
};

/// Per-bit iSLIP (McKeown 1999).
class IslipOracle final : public IterativeOracle {
public:
    using IterativeOracle::IterativeOracle;

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "islip_oracle";
    }

private:
    std::vector<std::size_t> grant_ptr_;
    std::vector<std::size_t> accept_ptr_;
    std::vector<std::int32_t> grant_to_;
};

/// Per-bit PIM (Anderson et al. 1993).
class PimOracle final : public IterativeOracle {
public:
    explicit PimOracle(const sched::SchedulerConfig& config = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "pim_oracle";
    }

private:
    util::Xoshiro256 rng_;
    std::uint64_t seed_;
    std::vector<std::vector<std::int32_t>> grants_;
};

/// Per-bit RRM (McKeown 1995): iSLIP's pointers, advanced on every
/// first-iteration grant.
class RrmOracle final : public IterativeOracle {
public:
    using IterativeOracle::IterativeOracle;

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "rrm_oracle";
    }

private:
    std::vector<std::size_t> grant_ptr_;
    std::vector<std::size_t> accept_ptr_;
    std::vector<std::int32_t> grant_to_;
};

/// Per-bit iLQF (McKeown 1995): longest VOQ first at grant and accept,
/// rotating chains from (cycle + port) breaking ties.
class IlqfOracle final : public IterativeOracle {
public:
    using IterativeOracle::IterativeOracle;

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return "ilqf_oracle";
    }
    [[nodiscard]] bool wants_queue_lengths() const noexcept override {
        return true;
    }
    void observe_queue_lengths(std::span<const std::uint32_t> lengths,
                               std::size_t outputs) override;

private:
    [[nodiscard]] std::uint32_t weight(std::size_t input,
                                       std::size_t output) const noexcept;

    std::size_t outputs_ = 0;
    std::vector<std::uint32_t> lengths_;
    std::size_t cycle_ = 0;
    std::vector<std::int32_t> grant_to_;
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
