#include "sched/ilqf.hpp"

namespace lcf::sched {

IlqfScheduler::IlqfScheduler(const SchedulerConfig& config)
    : iterations_(config.iterations) {}

void IlqfScheduler::reset(std::size_t /*inputs*/, std::size_t outputs) {
    outputs_ = outputs;
    lengths_.clear();
    cycle_ = 0;
}

void IlqfScheduler::observe_queue_lengths(
    std::span<const std::uint32_t> lengths, std::size_t outputs) {
    outputs_ = outputs;
    lengths_.assign(lengths.begin(), lengths.end());
}

std::uint32_t IlqfScheduler::weight(std::size_t input,
                                    std::size_t output) const noexcept {
    if (lengths_.empty()) return 1;  // standalone use: unweighted
    return lengths_[input * outputs_ + output];
}

void IlqfScheduler::schedule(const RequestMatrix& requests, Matching& out) {
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

}  // namespace lcf::sched
