#pragma once
// The Figure-6 bus in word-parallel form: the least-choice kernel both
// LCF cores run. NRQ, an input's count of remaining choices, is held as
// bit planes across the inputs: plane b holds bit b of every input's
// count, summed from the column view. For one output, the candidates
// `col ∩ free inputs` are narrowed from the most significant plane down,
// keeping those with a 0 bit whenever any has one (bus phase 1, the
// wired-AND minimum); the winner is the first survivor at or after a
// rotating tie-break start (phase 2). A ripple-borrow subtract takes one
// choice from every candidate at once. No step loops over candidates.
//
// lcf_central (§4) sums the planes once per cycle, then selects and
// subtracts output by output. lcf_dist (§5) sums them afresh each
// iteration over the outputs still free, and every free output selects
// against the same planes (the grant step).

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "sched/request_matrix.hpp"
#include "util/bitvec.hpp"

namespace lcf::core::detail {

inline constexpr std::size_t kWordBits = util::BitVec::kWordBits;

/// `i + 1`, wrapping to 0 at `n`.
constexpr std::size_t next_mod(std::size_t i, std::size_t n) noexcept {
    return i + 1 == n ? 0 : i + 1;
}

/// The kernel over `kWords` 64-bit words of inputs (0: the word count is
/// known only at run time). It works in caller-provided words and owns
/// no memory; with_nrq_planes() below provides them.
template <std::size_t kWords>
class NrqPlanes {
public:
    /// Upper bound on the number of planes: an NRQ is at most the output
    /// count, a std::size_t.
    static constexpr std::size_t kMaxPlanes =
        std::numeric_limits<std::size_t>::digits;
    /// Storage words per input word: the planes, the free inputs, the
    /// current column's candidates and the survivors of a selection.
    static constexpr std::size_t kRows = kMaxPlanes + 3;

    /// All `inputs` inputs free, no planes. `storage` holds
    /// `kRows * words` words.
    NrqPlanes(std::size_t inputs, std::uint64_t* storage) noexcept
        : words_((inputs + kWordBits - 1) / kWordBits),
          plane_(storage),
          free_(storage + kMaxPlanes * words()),
          cand_(free_ + words()),
          survivors_(cand_ + words()) {
        for (std::size_t k = 0; k < words(); ++k) {
            const std::size_t tail = inputs - k * kWordBits;
            free_[k] = tail >= kWordBits ? ~std::uint64_t{0}
                                         : (std::uint64_t{1} << tail) - 1;
        }
    }

    [[nodiscard]] std::size_t words() const noexcept {
        if constexpr (kWords != 0) {
            return kWords;
        } else {
            return words_;
        }
    }

    /// `input` leaves the competition.
    void take(std::size_t input) noexcept {
        free_[input / kWordBits] &= ~(std::uint64_t{1} << (input % kWordBits));
    }
    /// Every input set in `busy` leaves the competition.
    void take_all(const util::BitVec& busy) noexcept {
        for (std::size_t k = 0; k < words(); ++k) free_[k] &= ~busy.word(k);
    }
    [[nodiscard]] bool is_free(std::size_t input) const noexcept {
        return ((free_[input / kWordBits] >> (input % kWordBits)) & 1U) != 0;
    }

    /// Rebuild the planes: the NRQ of each free input becomes its number
    /// of requests to `outputs` (a range of output indices), for all
    /// inputs at once: no per-row popcount. Columns go in two at a time:
    /// plane 0 is a full adder of its bit and the two column bits (at
    /// most 3, so one sum bit and one carry), and the carry ripples up
    /// the planes above: half the ripples of one column per step, which
    /// docs/performance.md measures. There are as many planes as the
    /// largest NRQ needs, and at least one.
    template <typename Outputs>
    void sum_columns(const sched::RequestMatrix& requests, Outputs&& outputs) {
        planes_ = 1;
        for (std::size_t k = 0; k < words(); ++k) plane_[k] = 0;
        const util::BitVec* unpaired = nullptr;
        for (const std::size_t j : outputs) {
            const util::BitVec& col = requests.col(j);
            if (unpaired == nullptr) {
                unpaired = &col;
                continue;
            }
            add_columns(*unpaired, &col);
            unpaired = nullptr;
        }
        if (unpaired != nullptr) add_columns(*unpaired, nullptr);
    }

    /// cand := col ∩ free inputs; false when empty.
    bool load_candidates(const util::BitVec& col) noexcept {
        std::uint64_t any = 0;
        for (std::size_t k = 0; k < words(); ++k) {
            cand_[k] = col.word(k) & free_[k];
            any |= cand_[k];
        }
        return any != 0;
    }
    [[nodiscard]] bool is_candidate(std::size_t input) const noexcept {
        return ((cand_[input / kWordBits] >> (input % kWordBits)) & 1U) != 0;
    }
    /// The candidate count, with an inline SWAR popcount per word: a
    /// build without `-mpopcnt` turns std::popcount into a libgcc call.
    [[nodiscard]] std::size_t candidate_count() const noexcept {
        std::size_t count = 0;
        for (std::size_t k = 0; k < words(); ++k) {
            std::uint64_t x = cand_[k];
            x -= (x >> 1) & 0x5555555555555555U;
            x = (x & 0x3333333333333333U) + ((x >> 2) & 0x3333333333333333U);
            x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fU;
            count += static_cast<std::size_t>((x * 0x0101010101010101U) >> 56);
        }
        return count;
    }

    /// The least-choice candidate (precondition: one exists). Phase 1
    /// keeps, plane by plane from the most significant, the candidates
    /// with a 0 bit whenever any has one: the survivors hold the minimum
    /// NRQ. Phase 2 takes the first survivor at or after `start` (an
    /// input index), wrapping around: the rotating tie-break chain.
    [[nodiscard]] std::size_t least_choice(std::size_t start) noexcept {
        // A fixed-width select works on a local copy, which no plane
        // word can alias, so the survivors stay in registers.
        std::array<std::uint64_t, kWords == 0 ? 1 : kWords> local;
        std::uint64_t* const survivors = kWords != 0 ? local.data() : survivors_;
        for (std::size_t k = 0; k < words(); ++k) survivors[k] = cand_[k];
        for (std::size_t b = planes_; b-- > 0;) {
            const std::uint64_t* const p = plane_ + b * words();
            std::uint64_t zeros = 0;
            for (std::size_t k = 0; k < words(); ++k) {
                zeros |= survivors[k] & ~p[k];
            }
            // All ones when no survivor has a 0 here: then all stay.
            const std::uint64_t stay = std::uint64_t{0} - (zeros == 0);
            for (std::size_t k = 0; k < words(); ++k) {
                survivors[k] &= ~p[k] | stay;
            }
        }
        if constexpr (kWords == 1) {
            // Phase 2 in one word: the bits from the input count up are
            // clear, so wrapping at 64 is wrapping at the input count.
            const std::uint64_t w =
                std::rotr(survivors[0], static_cast<int>(start));
            assert(w != 0 && "phase 1 keeps at least one candidate");
            return (start + static_cast<std::size_t>(std::countr_zero(w))) %
                   kWordBits;
        }
        // Phase 2. The wrap ends back at the start word, whose bits at or
        // after `start` are then known to be clear.
        std::size_t k = start / kWordBits;
        std::uint64_t w =
            survivors[k] & (~std::uint64_t{0} << (start % kWordBits));
        for (std::size_t step = 0; w == 0 && step < words(); ++step) {
            k = next_mod(k, words());
            w = survivors[k];
        }
        assert(w != 0 && "phase 1 keeps at least one candidate");
        return k * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
    }

    /// Every candidate loses one choice: a ripple-borrow subtract across
    /// the planes, which consumes the candidate set. Only inputs that
    /// request the loaded column are candidates, so no count underflows.
    void subtract_candidates() noexcept {
        for (std::size_t b = 0; b < planes_; ++b) {
            std::uint64_t* const p = plane_ + b * words();
            for (std::size_t k = 0; k < words(); ++k) {
                const std::uint64_t bits = p[k];
                p[k] = bits ^ cand_[k];
                cand_[k] &= ~bits;
            }
        }
    }

private:
    /// Add one or two columns (masked by the free inputs) to the planes.
    /// A carry out of the top plane opens a new one, so the planes are
    /// always exactly as many as the largest NRQ so far needs.
    void add_columns(const util::BitVec& first,
                     const util::BitVec* second) noexcept {
        std::uint64_t* const carry = cand_;
        for (std::size_t k = 0; k < words(); ++k) {
            const std::uint64_t x = first.word(k) & free_[k];
            const std::uint64_t y =
                second != nullptr ? second->word(k) & free_[k] : 0;
            const std::uint64_t bits = plane_[k];
            plane_[k] = bits ^ x ^ y;
            carry[k] = (x & y) | (bits & (x ^ y));
        }
        for (std::size_t b = 1; b < planes_; ++b) {
            std::uint64_t* const p = plane_ + b * words();
            for (std::size_t k = 0; k < words(); ++k) {
                const std::uint64_t bits = p[k];
                p[k] = bits ^ carry[k];
                carry[k] &= bits;
            }
        }
        std::uint64_t any = 0;
        for (std::size_t k = 0; k < words(); ++k) any |= carry[k];
        if (any != 0) {
            std::uint64_t* const top = plane_ + planes_ * words();
            for (std::size_t k = 0; k < words(); ++k) top[k] = carry[k];
            ++planes_;
        }
    }

    std::size_t words_;
    std::size_t planes_ = 0;
    std::uint64_t* plane_;
    std::uint64_t* free_;
    std::uint64_t* cand_;
    std::uint64_t* survivors_;
};

/// Calls `body(planes)` with the kernel for `inputs` inputs, all free. A
/// compile-time word count lets the compiler unroll every per-word loop
/// and keep the kernel words on the stack. Only the widths measured
/// faster than the run-time width get one (see docs/performance.md); 8
/// words was not. The others work in `heap`.
template <typename Body>
void with_nrq_planes(std::size_t inputs, std::vector<std::uint64_t>& heap,
                     Body&& body) {
    const auto fixed = [&]<std::size_t kWords>() {
        std::array<std::uint64_t, kWords * NrqPlanes<kWords>::kRows> stack;
        NrqPlanes<kWords> planes(inputs, stack.data());
        body(planes);
    };
    const std::size_t words = (inputs + kWordBits - 1) / kWordBits;
    switch (words) {
        case 1:
            fixed.template operator()<1>();
            break;
        case 2:
            fixed.template operator()<2>();
            break;
        case 4:
            fixed.template operator()<4>();
            break;
        default: {
            heap.resize(words * NrqPlanes<0>::kRows);
            NrqPlanes<0> planes(inputs, heap.data());
            body(planes);
            break;
        }
    }
}

}  // namespace lcf::core::detail
