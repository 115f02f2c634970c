#include "sched/pim.hpp"

namespace lcf::sched {

PimScheduler::PimScheduler(const SchedulerConfig& config)
    : iterations_(config.iterations), rng_(config.seed), seed_(config.seed) {}

void PimScheduler::reset(std::size_t inputs, std::size_t /*outputs*/) {
    rng_ = util::Xoshiro256(seed_);
    grants_.assign(inputs, {});
}

void PimScheduler::schedule(const RequestMatrix& requests, Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    if (grants_.size() != n_in) grants_.assign(n_in, {});
    if (free_inputs_.size() != n_in) {
        free_inputs_ = util::BitVec(n_in);
        granted_inputs_ = util::BitVec(n_in);
        candidates_ = util::BitVec(n_in);
    }
    free_inputs_.fill();

    last_iterations_ = 0;
    for (std::size_t iter = 0; iter < iterations_; ++iter) {
        ++last_iterations_;
        // Grant: each unmatched output picks uniformly at random among the
        // unmatched inputs requesting it (reservoir sampling over the
        // column avoids materialising contender lists).
        for (std::size_t j = 0; j < n_out; ++j) {
            if (out.output_matched(j)) continue;
            candidates_.assign_and(requests.col(j), free_inputs_);
            std::size_t chosen = util::BitVec::npos;
            std::uint64_t seen = 0;
            for (const std::size_t i : candidates_.set_bits()) {
                ++seen;
                if (rng_.next_below(seen) == 0) chosen = i;
            }
            if (chosen != util::BitVec::npos) {
                grants_[chosen].push_back(static_cast<std::int32_t>(j));
                granted_inputs_.set(chosen);
            }
        }
        if (granted_inputs_.none()) break;  // converged: no augmenting grants

        // Accept: each input with grants picks one uniformly at random.
        for (const std::size_t i : granted_inputs_.set_bits()) {
            auto& g = grants_[i];
            const std::size_t pick =
                g.size() == 1 ? 0
                              : static_cast<std::size_t>(rng_.next_below(g.size()));
            out.match(i, static_cast<std::size_t>(g[pick]));
            free_inputs_.reset(i);
            g.clear();
        }
        granted_inputs_.clear();
    }
}

}  // namespace lcf::sched
