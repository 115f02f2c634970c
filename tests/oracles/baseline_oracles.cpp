#include "oracles/baseline_oracles.hpp"

namespace lcf::oracle {

using sched::kUnmatched;
using sched::Matching;
using sched::RequestMatrix;

void IslipOracle::reset(std::size_t inputs, std::size_t outputs) {
    grant_ptr_.assign(outputs, 0);
    accept_ptr_.assign(inputs, 0);
}

void IslipOracle::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    if (grant_ptr_.size() != n_out) grant_ptr_.assign(n_out, 0);
    if (accept_ptr_.size() != n_in) accept_ptr_.assign(n_in, 0);
    grant_to_.assign(n_out, kUnmatched);

    last_iterations_ = 0;
    for (std::size_t iter = 0; iter < iterations_; ++iter) {
        ++last_iterations_;
        // Grant: each unmatched output grants the first unmatched
        // requesting input at or after its pointer. Pointers are NOT
        // moved here; they move only on first-iteration accepts.
        bool any_grant = false;
        for (std::size_t j = 0; j < n_out; ++j) {
            grant_to_[j] = kUnmatched;
            if (out.output_matched(j)) continue;
            for (std::size_t k = 0; k < n_in; ++k) {
                const std::size_t i = (grant_ptr_[j] + k) % n_in;
                if (!out.input_matched(i) && requests.get(i, j)) {
                    grant_to_[j] = static_cast<std::int32_t>(i);
                    any_grant = true;
                    break;
                }
            }
        }
        if (!any_grant) break;

        // Accept: each input accepts the first granting output at or
        // after its accept pointer.
        for (std::size_t i = 0; i < n_in; ++i) {
            if (out.input_matched(i)) continue;
            for (std::size_t k = 0; k < n_out; ++k) {
                const std::size_t j = (accept_ptr_[i] + k) % n_out;
                if (grant_to_[j] == static_cast<std::int32_t>(i)) {
                    out.match(i, j);
                    if (iter == 0) {
                        grant_ptr_[j] = (i + 1) % n_in;
                        accept_ptr_[i] = (j + 1) % n_out;
                    }
                    break;
                }
            }
        }
    }
}

PimOracle::PimOracle(const sched::SchedulerConfig& config)
    : IterativeOracle(config), rng_(config.seed), seed_(config.seed) {}

void PimOracle::reset(std::size_t inputs, std::size_t /*outputs*/) {
    rng_ = util::Xoshiro256(seed_);
    grants_.assign(inputs, {});
}

void PimOracle::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    if (grants_.size() != n_in) grants_.assign(n_in, {});

    last_iterations_ = 0;
    for (std::size_t iter = 0; iter < iterations_; ++iter) {
        ++last_iterations_;
        // Grant: each unmatched output picks uniformly at random among the
        // unmatched inputs requesting it (reservoir sampling over the
        // column avoids materialising contender lists).
        for (auto& g : grants_) g.clear();
        bool any_grant = false;
        for (std::size_t j = 0; j < n_out; ++j) {
            if (out.output_matched(j)) continue;
            std::int32_t chosen = kUnmatched;
            std::uint64_t seen = 0;
            for (std::size_t i = 0; i < n_in; ++i) {
                if (out.input_matched(i) || !requests.get(i, j)) continue;
                ++seen;
                if (rng_.next_below(seen) == 0) {
                    chosen = static_cast<std::int32_t>(i);
                }
            }
            if (chosen != kUnmatched) {
                grants_[static_cast<std::size_t>(chosen)].push_back(
                    static_cast<std::int32_t>(j));
                any_grant = true;
            }
        }
        if (!any_grant) break;  // converged: no augmenting grants possible

        // Accept: each input with grants picks one uniformly at random.
        for (std::size_t i = 0; i < n_in; ++i) {
            const auto& g = grants_[i];
            if (g.empty()) continue;
            const std::size_t pick =
                g.size() == 1 ? 0
                              : static_cast<std::size_t>(rng_.next_below(g.size()));
            out.match(i, static_cast<std::size_t>(g[pick]));
        }
    }
}

void RrmOracle::reset(std::size_t inputs, std::size_t outputs) {
    grant_ptr_.assign(outputs, 0);
    accept_ptr_.assign(inputs, 0);
}

void RrmOracle::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    grant_to_.assign(n_out, kUnmatched);

    last_iterations_ = 0;
    for (std::size_t iter = 0; iter < iterations_; ++iter) {
        ++last_iterations_;
        bool any_grant = false;
        for (std::size_t j = 0; j < n_out; ++j) {
            grant_to_[j] = kUnmatched;
            if (out.output_matched(j)) continue;
            for (std::size_t k = 0; k < n_in; ++k) {
                const std::size_t i = (grant_ptr_[j] + k) % n_in;
                if (!out.input_matched(i) && requests.get(i, j)) {
                    grant_to_[j] = static_cast<std::int32_t>(i);
                    any_grant = true;
                    break;
                }
            }
        }
        if (!any_grant) break;

        for (std::size_t i = 0; i < n_in; ++i) {
            if (out.input_matched(i)) continue;
            for (std::size_t k = 0; k < n_out; ++k) {
                const std::size_t j = (accept_ptr_[i] + k) % n_out;
                if (grant_to_[j] == static_cast<std::int32_t>(i)) {
                    out.match(i, j);
                    if (iter == 0) {
                        // RRM's defining flaw: pointers advance one
                        // past the *granted/accepted* position whether
                        // or not anything was accepted elsewhere, so
                        // under symmetric load every grant pointer
                        // moves in lock-step.
                        grant_ptr_[j] = (static_cast<std::size_t>(i) + 1) %
                                        n_in;
                        accept_ptr_[i] = (j + 1) % n_out;
                    }
                    break;
                }
            }
        }
        // Unconditional advance for outputs whose grant was NOT
        // accepted — this is what desynchronising iSLIP removes.
        if (iter == 0) {
            for (std::size_t j = 0; j < n_out; ++j) {
                if (grant_to_[j] != kUnmatched &&
                    out.input_of(j) != grant_to_[j]) {
                    grant_ptr_[j] =
                        (static_cast<std::size_t>(grant_to_[j]) + 1) % n_in;
                }
            }
        }
    }
}

void IlqfOracle::reset(std::size_t /*inputs*/, std::size_t outputs) {
    outputs_ = outputs;
    lengths_.clear();
    cycle_ = 0;
}

void IlqfOracle::observe_queue_lengths(
    std::span<const std::uint32_t> lengths, std::size_t outputs) {
    outputs_ = outputs;
    lengths_.assign(lengths.begin(), lengths.end());
}

std::uint32_t IlqfOracle::weight(std::size_t input,
                                 std::size_t output) const noexcept {
    if (lengths_.empty()) return 1;  // standalone use: unweighted
    return lengths_[input * outputs_ + output];
}

void IlqfOracle::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    grant_to_.assign(n_out, kUnmatched);

    last_iterations_ = 0;
    for (std::size_t iter = 0; iter < iterations_; ++iter) {
        ++last_iterations_;
        // Grant: each unmatched output grants the requesting unmatched
        // input with the longest VOQ; the rotating chain breaks ties.
        bool any_grant = false;
        for (std::size_t j = 0; j < n_out; ++j) {
            grant_to_[j] = kUnmatched;
            if (out.output_matched(j)) continue;
            std::uint32_t best = 0;
            for (std::size_t k = 0; k < n_in; ++k) {
                const std::size_t i = (cycle_ + j + k) % n_in;
                if (out.input_matched(i) || !requests.get(i, j)) continue;
                const std::uint32_t w = weight(i, j);
                if (grant_to_[j] == kUnmatched || w > best) {
                    grant_to_[j] = static_cast<std::int32_t>(i);
                    best = w;
                }
            }
            any_grant = any_grant || grant_to_[j] != kUnmatched;
        }
        if (!any_grant) break;

        // Accept: each input accepts the granting output whose VOQ is
        // longest (drain the worst backlog first).
        for (std::size_t i = 0; i < n_in; ++i) {
            if (out.input_matched(i)) continue;
            std::int32_t best_out = kUnmatched;
            std::uint32_t best = 0;
            for (std::size_t k = 0; k < n_out; ++k) {
                const std::size_t j = (cycle_ + i + k) % n_out;
                if (grant_to_[j] != static_cast<std::int32_t>(i)) continue;
                const std::uint32_t w = weight(i, j);
                if (best_out == kUnmatched || w > best) {
                    best_out = static_cast<std::int32_t>(j);
                    best = w;
                }
            }
            if (best_out != kUnmatched) {
                out.match(i, static_cast<std::size_t>(best_out));
            }
        }
    }
    ++cycle_;
}

void WavefrontOracle::reset(std::size_t /*inputs*/, std::size_t /*outputs*/) {
    priority_diag_ = 0;
}

void WavefrontOracle::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    if (n_in == 0 || n_out == 0) return;

    // Wrapped diagonal d holds cells (i, j) with (i + j) mod n_out == d
    // (square switches in practice; rectangular ones sweep per-row).
    // Only still-free inputs are visited: set bits iterate in ascending
    // row order, so each diagonal matches exactly the cells the naive
    // full scan would.
    if (free_inputs_.size() != n_in) free_inputs_ = util::BitVec(n_in);
    free_inputs_.fill();
    const std::size_t diags = n_out;
    for (std::size_t step = 0; step < diags && free_inputs_.any(); ++step) {
        const std::size_t d = (priority_diag_ + step) % diags;
        for (const std::size_t i : free_inputs_.set_bits()) {
            const std::size_t j = (d + n_out - (i % n_out)) % n_out;
            if (!out.output_matched(j) && requests.get(i, j)) {
                out.match(i, j);
                free_inputs_.reset(i);
            }
        }
    }
    priority_diag_ = (priority_diag_ + 1) % diags;
}

void FifoRrOracle::reset(std::size_t /*inputs*/, std::size_t outputs) {
    grant_ptr_.assign(outputs, 0);
}

void FifoRrOracle::schedule(const RequestMatrix& requests, Matching& out) {
    out.reset(requests.inputs(), requests.outputs());
    // In FIFO mode each input requests at most its head-of-line
    // destination, so grants never conflict on the input side. The
    // matched-input guard makes the arbiter well-defined on general
    // request matrices too (it then acts as a greedy row-exclusive
    // round-robin arbiter).
    for (std::size_t j = 0; j < requests.outputs(); ++j) {
        for (std::size_t k = 0; k < requests.inputs(); ++k) {
            const std::size_t i = (grant_ptr_[j] + k) % requests.inputs();
            if (!out.input_matched(i) && requests.get(i, j)) {
                out.match(i, j);
                grant_ptr_[j] = (i + 1) % requests.inputs();
                break;
            }
        }
    }
}

}  // namespace lcf::oracle
