#include "core/lcf_dist.hpp"

#include <algorithm>
#include <limits>

#include "core/nrq_planes.hpp"

namespace lcf::core {

namespace {

/// `accept_key_` entry of an input without a grant: above every key.
constexpr std::uint64_t kNoGrant = std::numeric_limits<std::uint64_t>::max();

/// An accept key holds NGT above the rotated rank. Both are below 2^31
/// (a Matching names ports by std::int32_t), so the key orders by NGT
/// first and the rank recovers the output.
constexpr unsigned kRankBits = 32;
constexpr std::uint64_t kRankMask = (std::uint64_t{1} << kRankBits) - 1;

/// (base + idx) mod n for base < n, with no division when idx < n.
constexpr std::size_t add_mod(std::size_t base, std::size_t idx,
                              std::size_t n) noexcept {
    if (idx >= n) idx %= n;
    return idx >= n - base ? idx - (n - base) : base + idx;
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
    if (free_outputs_.size() != n_out) free_outputs_ = util::BitVec(n_out);
    if (accept_key_.size() != n_in) {
        accept_key_.assign(n_in, kNoGrant);
        offered_ = util::BitVec(n_in);
    }

    // Free masks, word by word: an output is free unless matched, and
    // each matched output names the one input it takes out.
    const util::BitVec& matched = out.matched_outputs();
    for (std::size_t k = 0; k < free_outputs_.word_count(); ++k) {
        free_outputs_.set_word(k, ~matched.word(k));
    }
    std::size_t executed = 0;
    detail::with_nrq_planes(n_in, words_, [&](auto& planes) {
        for (const std::size_t j : matched.set_bits()) {
            planes.take(static_cast<std::size_t>(out.input_of(j)));
        }
        executed = run_iterations(planes, requests, iterations, out);
    });
    return executed;
}

template <std::size_t kWords>
std::size_t LcfDistScheduler::run_iterations(
    detail::NrqPlanes<kWords>& planes, const sched::RequestMatrix& requests,
    std::size_t iterations, sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    // Tie-break chain starts: (cycle_ + j) mod n_in for target j's grant,
    // (cycle_ + i) mod n_out for initiator i's accept.
    const std::size_t grant_base = n_in == 0 ? 0 : cycle_ % n_in;
    const std::size_t accept_base = n_out == 0 ? 0 : cycle_ % n_out;

    std::size_t executed = 0;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        ++executed;
        // Grant: each unmatched target grants the requester with the
        // lowest NRQ; the rotating chain starting at (cycle_ + j) breaks
        // ties. NGT is how many requests the target saw. The grant goes
        // straight into the initiator's accept key, which keeps the
        // grant with the lowest NGT; the initiator's rotating chain
        // starting at (cycle_ + i) breaks ties.
        bool granted = false;
        for (const std::size_t j : free_outputs_.set_bits()) {
            if (!planes.load_candidates(requests.col(j))) continue;
            if (!granted) {
                // Request: NRQ of an unmatched initiator = number of its
                // requests to still-unmatched targets (its remaining
                // choices). Summed only once some target has a
                // requester, so the iteration that finds none is cheap.
                granted = true;
                planes.sum_columns(requests, free_outputs_.set_bits());
                planes.load_candidates(requests.col(j));
            }
            const std::size_t i =
                planes.least_choice(add_mod(grant_base, j, n_in));
            const std::size_t start = add_mod(accept_base, i, n_out);
            const std::size_t rank = j >= start ? j - start : j + n_out - start;
            const std::uint64_t key =
                (static_cast<std::uint64_t>(planes.candidate_count()) << kRankBits) |
                rank;
            accept_key_[i] = std::min(accept_key_[i], key);
            offered_.set(i);
        }
        if (!granted) break;  // converged

        // Accept: every initiator holding a grant takes its least key.
        for (const std::size_t i : offered_.set_bits()) {
            const std::size_t start = add_mod(accept_base, i, n_out);
            const std::size_t j =
                add_mod(start, static_cast<std::size_t>(accept_key_[i] & kRankMask),
                        n_out);
            accept_key_[i] = kNoGrant;
            out.match(i, j);
            planes.take(i);
            free_outputs_.reset(j);
        }
        offered_.clear();
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
