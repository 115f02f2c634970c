#pragma once
// The distributed Least Choice First scheduler (§5): an iterative
// request / grant / accept matcher in the style of PIM, but with
// least-choice priorities instead of randomness.
//
//   Request — each unmatched initiator requests every target it has a
//             packet for, accompanied by NRQ, the number of requests it
//             is sending.
//   Grant   — each unmatched target grants the request with the lowest
//             NRQ (round-robin tie-break), accompanied by NGT, the
//             number of requests the target received.
//   Accept  — each unmatched initiator accepts the grant with the lowest
//             NGT (round-robin tie-break).
//
// With round-robin enabled (`lcf_dist_rr`), one rotating position of the
// request matrix is granted before the iterations begin, bounding the
// time until any persistent request is served.

#include "sched/scheduler.hpp"

#include <cstdint>
#include <vector>

#include "util/bitvec.hpp"

namespace lcf::core {

namespace detail {
template <std::size_t kWords>
class NrqPlanes;
}  // namespace detail

/// Configuration of the distributed LCF scheduler.
struct LcfDistOptions {
    /// Request/grant/accept iterations per scheduling cycle (paper: 4).
    std::size_t iterations = 4;
    /// Pre-match the rotating round-robin position each cycle
    /// (`lcf_dist_rr`).
    bool round_robin = false;
};

/// Distributed iterative LCF scheduler (`lcf_dist` / `lcf_dist_rr`).
///
/// NRQ counts an initiator's requests to still-unmatched targets (matched
/// targets cannot grant, so they are no longer "choices"); symmetrically
/// NGT counts requests a target received in the current iteration. The
/// paper does not pin down the round-robin pointer update rule; we rotate
/// every per-port tie-break pointer by one position each scheduling
/// cycle, mirroring the hardware's PRIO shift registers (§4.2).
///
/// Implementation: each iteration is the Figure-6 bus over 64-bit words
/// (core/nrq_planes.hpp). The NRQ planes are summed afresh over the
/// outputs still free; each free output j narrows its candidates
/// `col(j) ∩ free inputs` to the least NRQ and takes the first survivor
/// from (cycle + j) mod n_in, and NGT is the candidate count. Each grant
/// carries one (NGT, rotated rank) key, and an input accepts its least
/// key. No step walks the candidates of an output. The free masks start
/// word by word from the matching's matched outputs. Bit-identical to
/// LcfDistReferenceScheduler (enforced by the equivalence suite).
class LcfDistScheduler final : public sched::Scheduler {
public:
    explicit LcfDistScheduler(const LcfDistOptions& options = {});

    void reset(std::size_t inputs, std::size_t outputs) override;
    void schedule(const sched::RequestMatrix& requests,
                  sched::Matching& out) override;
    [[nodiscard]] std::string_view name() const noexcept override {
        return options_.round_robin ? "lcf_dist_rr" : "lcf_dist";
    }

    /// Run up to `iterations` iterations on `requests` starting from the
    /// partial matching `out` (exposed so tests can single-step the
    /// Figure 9 example). Does not advance round-robin state. Returns
    /// the number of iterations actually executed (fewer than the budget
    /// when the matcher converges early). Works in member scratch, so
    /// one scheduler runs one iterate() at a time, like schedule().
    std::size_t iterate(const sched::RequestMatrix& requests,
                        std::size_t iterations, sched::Matching& out);

    [[nodiscard]] std::size_t last_iterations() const noexcept override {
        return last_iterations_;
    }
    [[nodiscard]] std::size_t iteration_limit() const noexcept override {
        return options_.iterations;
    }

    /// Current round-robin position (exposed for tests).
    [[nodiscard]] std::pair<std::size_t, std::size_t> rr_position() const noexcept {
        return {rr_input_, rr_output_};
    }
    void set_rr_position(std::size_t input, std::size_t output) noexcept {
        rr_input_ = input;
        rr_output_ = output;
    }

private:
    /// The request/grant/accept iterations on the kernel width for the
    /// input count.
    template <std::size_t kWords>
    std::size_t run_iterations(detail::NrqPlanes<kWords>& planes,
                               const sched::RequestMatrix& requests,
                               std::size_t iterations, sched::Matching& out);

    LcfDistOptions options_;
    std::size_t rr_input_ = 0;
    std::size_t rr_output_ = 0;
    std::size_t cycle_ = 0;  // drives tie-break pointer rotation
    std::size_t last_iterations_ = 0;
    // iterate() scratch, reused across calls (resized on a geometry
    // change only).
    std::vector<std::uint64_t> words_;  // kernel words without a fixed width
    util::BitVec free_outputs_;
    // Per input: the least (NGT, rotated rank) key among the grants it
    // holds this iteration, or kNoGrant. Every iteration leaves all
    // entries kNoGrant again.
    std::vector<std::uint64_t> accept_key_;
    util::BitVec offered_;  // inputs holding a grant this iteration
};

}  // namespace lcf::core
