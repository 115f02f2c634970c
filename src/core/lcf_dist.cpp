#include "core/lcf_dist.hpp"

namespace lcf::core {

namespace {

/// Position of `idx` in the rotating priority chain that starts at
/// `start` (both < n): 0 for the start position itself, n-1 for the one
/// just before it. Replaces the reference's per-candidate `(base + k) % n`
/// scan with one conditional subtraction per set bit.
constexpr std::size_t rotated_rank(std::size_t idx, std::size_t start,
                                   std::size_t n) noexcept {
    return idx >= start ? idx - start : idx + n - start;
}

}  // namespace

LcfDistScheduler::LcfDistScheduler(const LcfDistOptions& options)
    : options_(options) {}

void LcfDistScheduler::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    rr_input_ = 0;
    rr_output_ = 0;
    cycle_ = 0;
}

std::size_t LcfDistScheduler::iterate(const sched::RequestMatrix& requests,
                                      std::size_t iterations,
                                      sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();

    // Free-port masks: candidates of target j are col(j) ∩ free_inputs,
    // and an initiator's NRQ is one word-parallel row ∩ free_outputs
    // popcount instead of a find_next walk over every request bit.
    if (free_inputs_.size() != n_in) {
        free_inputs_ = util::BitVec(n_in);
        cand_ = util::BitVec(n_in);
    }
    if (free_outputs_.size() != n_out) free_outputs_ = util::BitVec(n_out);
    for (std::size_t i = 0; i < n_in; ++i) {
        free_inputs_.set(i, !out.input_matched(i));
    }
    for (std::size_t j = 0; j < n_out; ++j) {
        free_outputs_.set(j, !out.output_matched(j));
    }

    // Entries are read only after this call wrote them, except
    // accept_of_, which every iteration leaves all-unmatched again.
    nrq_.resize(n_in);
    ngt_.resize(n_out);
    grant_to_.resize(n_out);
    accept_of_.assign(n_in, sched::kUnmatched);
    accept_ngt_.resize(n_in);
    accept_rank_.resize(n_in);

    std::size_t executed = 0;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        ++executed;
        // Request: NRQ of an unmatched initiator = number of its requests
        // to still-unmatched targets (its remaining choices).
        for (const std::size_t i : free_inputs_.set_bits()) {
            nrq_[i] = requests.row(i).and_count(free_outputs_);
        }

        // Grant: each unmatched target grants the requester with the
        // lowest NRQ; the rotating chain starting at (cycle_ + j) breaks
        // ties. NGT records how many requests the target saw. One walk
        // of the candidate set bits replaces the rotated scan over all
        // inputs: the chain order is the (NRQ, rotated rank) minimum.
        granted_.clear();
        for (const std::size_t j : free_outputs_.set_bits()) {
            cand_.assign_and(requests.col(j), free_inputs_);
            const std::size_t seen = cand_.count();
            if (seen == 0) continue;
            ngt_[j] = seen;
            const std::size_t start = (cycle_ + j) % n_in;
            std::size_t best = 0;
            std::size_t best_nrq = n_out + 1;
            std::size_t best_rank = n_in;
            for (const std::size_t i : cand_.set_bits()) {
                const std::size_t rank = rotated_rank(i, start, n_in);
                if (nrq_[i] < best_nrq ||
                    (nrq_[i] == best_nrq && rank < best_rank)) {
                    best = i;
                    best_nrq = nrq_[i];
                    best_rank = rank;
                }
            }
            grant_to_[j] = static_cast<std::int32_t>(best);
            granted_.push_back(j);
        }
        if (granted_.empty()) break;  // converged

        // Accept: each initiator accepts the grant from the target with
        // the lowest NGT; rotating chain starting at (cycle_ + i) breaks
        // ties. One pass over the issued grants replaces the per-input
        // scan over all targets.
        for (const std::size_t j : granted_) {
            const auto i = static_cast<std::size_t>(grant_to_[j]);
            const std::size_t start = (cycle_ + i) % n_out;
            const std::size_t rank = rotated_rank(j, start, n_out);
            if (accept_of_[i] == sched::kUnmatched || ngt_[j] < accept_ngt_[i] ||
                (ngt_[j] == accept_ngt_[i] && rank < accept_rank_[i])) {
                accept_of_[i] = static_cast<std::int32_t>(j);
                accept_ngt_[i] = ngt_[j];
                accept_rank_[i] = rank;
            }
        }
        for (const std::size_t j : granted_) {
            const auto i = static_cast<std::size_t>(grant_to_[j]);
            if (accept_of_[i] == static_cast<std::int32_t>(j)) {
                out.match(i, j);
                free_inputs_.reset(i);
                free_outputs_.reset(j);
            }
        }
        for (const std::size_t j : granted_) {  // reset for the next iteration
            accept_of_[static_cast<std::size_t>(grant_to_[j])] = sched::kUnmatched;
        }
    }
    return executed;
}

void LcfDistScheduler::schedule(const sched::RequestMatrix& requests,
                                sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    last_iterations_ = 0;
    if (n_in == 0 || n_out == 0) return;

    if (options_.round_robin && requests.get(rr_input_, rr_output_)) {
        // The single round-robin position is granted before regular LCF
        // iterations take place (§5).
        out.match(rr_input_, rr_output_);
    }

    last_iterations_ = iterate(requests, options_.iterations, out);

    // Advance per-cycle round-robin state: the RR position walks all n²
    // matrix positions; the tie-break chains rotate by one.
    rr_input_ = (rr_input_ + 1) % n_in;
    if (rr_input_ == 0) rr_output_ = (rr_output_ + 1) % n_out;
    ++cycle_;
}

}  // namespace lcf::core
