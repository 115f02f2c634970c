#include "core/lcf_central.hpp"

#include <cassert>
#include <ranges>

#include "core/nrq_planes.hpp"

namespace lcf::core {

namespace {

/// Clear a scratch vector for reuse; reallocate only when the geometry
/// changed.
void reset_scratch(util::BitVec& v, std::size_t bits) {
    if (v.size() == bits) {
        v.clear();
    } else {
        v = util::BitVec(bits);
    }
}

}  // namespace

LcfCentralScheduler::LcfCentralScheduler(const LcfCentralOptions& options)
    : options_(options) {}

std::string_view LcfCentralScheduler::name() const noexcept {
    switch (options_.variant) {
        case RrVariant::kNone:
            return "lcf_central";
        case RrVariant::kSingle:
            return "lcf_central_rr_single";
        case RrVariant::kInterleaved:
            return "lcf_central_rr";
        case RrVariant::kDiagonalFirst:
            return "lcf_central_rr_first";
    }
    return "lcf_central";
}

void LcfCentralScheduler::reset(std::size_t inputs, std::size_t outputs) {
    rr_input_ = 0;
    rr_output_ = 0;
    n_in_ = inputs;
    n_out_ = outputs;
}

void LcfCentralScheduler::set_diagonal(std::size_t input_offset,
                                       std::size_t output_offset) noexcept {
    rr_input_ = input_offset;
    rr_output_ = output_offset;
}

void LcfCentralScheduler::advance_diagonal() noexcept {
    // I := (I+1) mod MaxReq; if I = 0 then J := (J+1) mod MaxRes — so the
    // diagonal anchor visits all n² positions over n² scheduling cycles.
    if (n_in_ == 0 || n_out_ == 0) return;
    rr_input_ = (rr_input_ + 1) % n_in_;
    if (rr_input_ == 0) rr_output_ = (rr_output_ + 1) % n_out_;
}

void LcfCentralScheduler::schedule(const sched::RequestMatrix& requests,
                                   sched::Matching& out) {
    run_lcf(requests, nullptr, nullptr, out);
    advance_diagonal();
}

void LcfCentralScheduler::run_lcf(const sched::RequestMatrix& requests,
                                  const util::BitVec* busy_inputs,
                                  const util::BitVec* busy_outputs,
                                  sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    out.reset(n_in, n_out);
    if (n_in == 0 || n_out == 0) return;
    n_in_ = n_in;
    n_out_ = n_out;

    detail::with_nrq_planes(n_in, words_, [&](auto& planes) {
        run_planes(planes, requests, busy_inputs, busy_outputs, out);
    });
}

template <std::size_t kWords>
void LcfCentralScheduler::run_planes(detail::NrqPlanes<kWords>& planes,
                                     const sched::RequestMatrix& requests,
                                     const util::BitVec* busy_inputs,
                                     const util::BitVec* busy_outputs,
                                     sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    using detail::next_mod;

    // Everyone not consumed by a precalculated stage competes, for every
    // output not consumed by it.
    if (busy_inputs != nullptr) planes.take_all(*busy_inputs);
    const auto competing = [busy_outputs](std::size_t j) {
        return busy_outputs == nullptr || !busy_outputs->test(j);
    };
    planes.sum_columns(requests, std::views::iota(std::size_t{0}, n_out) |
                                     std::views::filter(competing));

    // Grant (input, col): the winner leaves the competition, and every
    // candidate of the consumed output loses one choice. The winner's own
    // count goes down with the rest; it is never read again.
    const auto grant = [&](std::size_t input, std::size_t col) {
        out.match(input, col);
        planes.take(input);
        planes.subtract_candidates();
    };

    const std::size_t col0 = rr_output_ % n_out;
    const std::size_t pos0 = rr_input_ % n_in;

    // Diagonal-first variant: the entire round-robin diagonal is
    // admitted before any LCF priority is consulted (§3's b/n upper
    // bound).
    if (options_.variant == RrVariant::kDiagonalFirst) {
        for (std::size_t res = 0, col = col0, pos = pos0; res < n_out;
             ++res, col = next_mod(col, n_out), pos = next_mod(pos, n_in)) {
            if (!competing(col)) continue;
            if (planes.is_free(pos) && requests.get(pos, col)) {
                planes.load_candidates(requests.col(col));
                grant(pos, col);
            }
        }
    }

    // Allocate resources one after the other (Figure 2 main loop). The
    // round-robin position (pos, col) walks the diagonal.
    const bool interleaved = options_.variant == RrVariant::kInterleaved;
    const bool single = options_.variant == RrVariant::kSingle;
    for (std::size_t res = 0, col = col0, pos = pos0; res < n_out;
         ++res, col = next_mod(col, n_out), pos = next_mod(pos, n_in)) {
        if (!competing(col)) continue;
        if (out.output_matched(col)) continue;  // diagonal-first stage
        if (!planes.load_candidates(requests.col(col))) continue;
        const bool rr_wins =
            (interleaved || (single && res == 0)) && planes.is_candidate(pos);
        grant(rr_wins ? pos : planes.least_choice(pos), col);
    }
}

void LcfCentralScheduler::schedule_with_precalc(
    const sched::RequestMatrix& requests, const PrecalcSchedule& precalc,
    MulticastResult& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    assert(precalc.inputs() == n_in && precalc.outputs() == n_out);

    out.fanout.assign(n_out, sched::kUnmatched);
    out.dropped.clear();

    // Stage 1: integrity-check and admit the precalculated schedule. A
    // target claimed by several inputs is a violation: the first claimant
    // in the rotating priority order is accepted, the rest are dropped
    // (§4.3: "one request is accepted and the remaining ones are
    // dropped"). One transpose of the claim rows replaces the per-target
    // rotated scan over all inputs: each target's claimants are walked in
    // rotated order directly from its column's set bits.
    reset_scratch(busy_inputs_, n_in);
    reset_scratch(busy_outputs_, n_out);
    if (precalc_cols_.size() != n_out ||
        (n_out > 0 && precalc_cols_[0].size() != n_in)) {
        precalc_cols_.assign(n_out, util::BitVec(n_in));
    } else {
        for (auto& c : precalc_cols_) c.clear();
    }
    for (std::size_t i = 0; i < n_in; ++i) {
        for (const std::size_t j : precalc.row(i).set_bits()) {
            precalc_cols_[j].set(i);
        }
    }
    const std::size_t rot0 = n_in == 0 ? 0 : rr_input_ % n_in;
    for (std::size_t j = 0; j < n_out; ++j) {
        if (precalc_cols_[j].none()) continue;
        rot_scratch_.clear();
        for (const std::size_t i : precalc_cols_[j].set_bits()) {
            rot_scratch_.push_back(i);
        }
        // Rotated order from the diagonal anchor: indices >= rot0 first.
        for (const int pass : {0, 1}) {
            for (const std::size_t i : rot_scratch_) {
                if ((i >= rot0) != (pass == 0)) continue;
                if (out.fanout[j] == sched::kUnmatched) {
                    out.fanout[j] = static_cast<std::int32_t>(i);
                    busy_outputs_.set(j);
                } else {
                    out.dropped.emplace_back(i, j);
                }
            }
        }
    }
    // An input that won any precalculated connection transmits that
    // packet this slot and does not take part in the LCF stage.
    for (std::size_t j = 0; j < n_out; ++j) {
        if (out.fanout[j] != sched::kUnmatched) {
            busy_inputs_.set(static_cast<std::size_t>(out.fanout[j]));
        }
    }

    // Stage 2: regular LCF over the remaining requests and free ports.
    run_lcf(requests, &busy_inputs_, &busy_outputs_, out.unicast);
    for (std::size_t j = 0; j < n_out; ++j) {
        if (out.unicast.input_of(j) != sched::kUnmatched) {
            out.fanout[j] = out.unicast.input_of(j);
        }
    }
    advance_diagonal();
}

}  // namespace lcf::core
