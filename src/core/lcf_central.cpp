#include "core/lcf_central.hpp"

#include <array>
#include <bit>
#include <cassert>
#include <limits>

namespace lcf::core {

namespace {

constexpr std::size_t kWordBits = util::BitVec::kWordBits;

/// Upper bound on the number of NRQ planes: an NRQ is at most the output
/// count, a std::size_t.
constexpr std::size_t kMaxPlanes = std::numeric_limits<std::size_t>::digits;

/// Kernel words per input word: the NRQ planes, the free inputs, the
/// current column's candidates and the candidates that survive
/// selection.
constexpr std::size_t kKernelRows = kMaxPlanes + 3;

/// Clear a scratch vector for reuse; reallocate only when the geometry
/// changed.
void reset_scratch(util::BitVec& v, std::size_t bits) {
    if (v.size() == bits) {
        v.clear();
    } else {
        v = util::BitVec(bits);
    }
}

/// `i + 1`, wrapping to 0 at `n`.
constexpr std::size_t next_mod(std::size_t i, std::size_t n) noexcept {
    return i + 1 == n ? 0 : i + 1;
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

    // A compile-time word count lets the compiler unroll every per-word
    // loop and keep the kernel words on the stack. Only the widths
    // measured faster than the run-time width get one (see
    // docs/performance.md); 8 words was not.
    switch ((n_in + kWordBits - 1) / kWordBits) {
        case 1:
            run_planes<1>(requests, busy_inputs, busy_outputs, out);
            break;
        case 2:
            run_planes<2>(requests, busy_inputs, busy_outputs, out);
            break;
        case 4:
            run_planes<4>(requests, busy_inputs, busy_outputs, out);
            break;
        default:
            run_planes<0>(requests, busy_inputs, busy_outputs, out);
            break;
    }
}

template <std::size_t kWords>
void LcfCentralScheduler::run_planes(const sched::RequestMatrix& requests,
                                     const util::BitVec* busy_inputs,
                                     const util::BitVec* busy_outputs,
                                     sched::Matching& out) {
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    const std::size_t words =
        kWords != 0 ? kWords : (n_in + kWordBits - 1) / kWordBits;

    std::array<std::uint64_t, kWords * kKernelRows> stack;
    if constexpr (kWords == 0) words_.resize(words * kKernelRows);
    std::uint64_t* const plane = kWords != 0 ? stack.data() : words_.data();
    std::uint64_t* const free = plane + kMaxPlanes * words;
    std::uint64_t* const cand = free + words;
    std::uint64_t* const survivors = cand + words;

    // Everyone not consumed by a precalculated stage competes.
    for (std::size_t k = 0; k < words; ++k) {
        const std::size_t tail = n_in - k * kWordBits;
        std::uint64_t w = tail >= kWordBits ? ~std::uint64_t{0}
                                            : (std::uint64_t{1} << tail) - 1;
        if (busy_inputs != nullptr) w &= ~busy_inputs->word(k);
        free[k] = w;
    }
    // NRQ planes by bit-sliced addition over the column view: every
    // competing output adds one to the count of each free input that
    // requests it, for all inputs at once — no per-row popcount. Columns
    // go in two at a time: plane 0 is a full adder of its bit and the
    // two column bits (at most 3, so one sum bit and one carry), and the
    // carry ripples up the planes above: half the ripples of one column
    // per step, which docs/performance.md measures.
    std::size_t planes = 0;
    std::size_t added = 0;  // columns summed so far: a bound on every NRQ
    const auto add_columns = [&](const util::BitVec& first,
                                 const util::BitVec* second) {
        added += second != nullptr ? 2 : 1;
        for (; planes < static_cast<std::size_t>(std::bit_width(added));
             ++planes) {
            for (std::size_t k = 0; k < words; ++k) plane[planes * words + k] = 0;
        }
        std::uint64_t* const carry = cand;
        for (std::size_t k = 0; k < words; ++k) {
            const std::uint64_t x = first.word(k) & free[k];
            const std::uint64_t y =
                second != nullptr ? second->word(k) & free[k] : 0;
            const std::uint64_t bits = plane[k];
            plane[k] = bits ^ x ^ y;
            carry[k] = (x & y) | (bits & (x ^ y));
        }
        for (std::size_t b = 1; b < planes; ++b) {
            std::uint64_t* const p = plane + b * words;
            for (std::size_t k = 0; k < words; ++k) {
                const std::uint64_t bits = p[k];
                p[k] = bits ^ carry[k];
                carry[k] &= bits;
            }
        }
    };
    const util::BitVec* unpaired = nullptr;
    for (std::size_t j = 0; j < n_out; ++j) {
        if (busy_outputs != nullptr && busy_outputs->test(j)) continue;
        if (unpaired == nullptr) {
            unpaired = &requests.col(j);
        } else {
            add_columns(*unpaired, &requests.col(j));
            unpaired = nullptr;
        }
    }
    if (unpaired != nullptr) add_columns(*unpaired, nullptr);
    // Keep only the planes the largest NRQ needs.
    const auto zero_plane = [&](std::size_t b) {
        std::uint64_t any = 0;
        for (std::size_t k = 0; k < words; ++k) any |= plane[b * words + k];
        return any == 0;
    };
    while (planes > 0 && zero_plane(planes - 1)) --planes;

    // cand := col(col) ∩ free inputs; false when empty.
    const auto load_candidates = [&](std::size_t col) {
        const util::BitVec& requesters = requests.col(col);
        std::uint64_t any = 0;
        for (std::size_t k = 0; k < words; ++k) {
            cand[k] = requesters.word(k) & free[k];
            any |= cand[k];
        }
        return any != 0;
    };
    const auto is_candidate = [&](std::size_t input) {
        return ((cand[input / kWordBits] >> (input % kWordBits)) & 1U) != 0;
    };
    // The least-choice candidate: bus phase 1 keeps, plane by plane from
    // the most significant, the candidates with a 0 bit whenever any has
    // one — the survivors hold the minimum NRQ. Phase 2 takes the first
    // survivor at or after `start`, wrapping around: the rotating
    // tie-break chain.
    const auto least_choice = [&](std::size_t start) {
        for (std::size_t k = 0; k < words; ++k) survivors[k] = cand[k];
        for (std::size_t b = planes; b-- > 0;) {
            const std::uint64_t* const p = plane + b * words;
            std::uint64_t zeros = 0;
            for (std::size_t k = 0; k < words; ++k) {
                zeros |= survivors[k] & ~p[k];
            }
            // All ones when no survivor has a 0 here: then all stay.
            const std::uint64_t stay = std::uint64_t{0} - (zeros == 0);
            for (std::size_t k = 0; k < words; ++k) {
                survivors[k] &= ~p[k] | stay;
            }
        }
        // Phase 2. The wrap ends back at the start word, whose bits at or
        // after `start` are then known to be clear.
        std::size_t k = start / kWordBits;
        std::uint64_t w = survivors[k] & (~std::uint64_t{0} << (start % kWordBits));
        for (std::size_t step = 0; w == 0 && step < words; ++step) {
            k = next_mod(k, words);
            w = survivors[k];
        }
        assert(w != 0 && "phase 1 keeps at least one candidate");
        return k * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
    };
    // Grant (input, col): the winner leaves the competition, and every
    // candidate of the consumed output loses one choice — a ripple-borrow
    // subtract across the planes. The winner's own count goes down with
    // the rest; it is never read again. Every candidate requests `col`,
    // so no count underflows.
    const auto grant = [&](std::size_t input, std::size_t col) {
        out.match(input, col);
        free[input / kWordBits] &= ~(std::uint64_t{1} << (input % kWordBits));
        for (std::size_t b = 0; b < planes; ++b) {
            std::uint64_t* const p = plane + b * words;
            for (std::size_t k = 0; k < words; ++k) {
                const std::uint64_t bits = p[k];
                p[k] = bits ^ cand[k];
                cand[k] &= ~bits;
            }
        }
    };

    const std::size_t col0 = rr_output_ % n_out;
    const std::size_t pos0 = rr_input_ % n_in;

    // Diagonal-first variant: the entire round-robin diagonal is
    // admitted before any LCF priority is consulted (§3's b/n upper
    // bound).
    if (options_.variant == RrVariant::kDiagonalFirst) {
        for (std::size_t res = 0, col = col0, pos = pos0; res < n_out;
             ++res, col = next_mod(col, n_out), pos = next_mod(pos, n_in)) {
            if (busy_outputs != nullptr && busy_outputs->test(col)) continue;
            if (((free[pos / kWordBits] >> (pos % kWordBits)) & 1U) != 0 &&
                requests.get(pos, col)) {
                load_candidates(col);
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
        if (busy_outputs != nullptr && busy_outputs->test(col)) continue;
        if (out.output_matched(col)) continue;  // diagonal-first stage
        if (!load_candidates(col)) continue;
        const bool rr_wins =
            (interleaved || (single && res == 0)) && is_candidate(pos);
        grant(rr_wins ? pos : least_choice(pos), col);
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
