#pragma once
// The virtual-output-queue bank of one input port: one bounded FIFO per
// output, all kept in a single pooled slab.

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/packet.hpp"

namespace lcf::sim {

/// Per-input VOQ bank: `outputs` bounded FIFOs sharing one slab.
///
/// Packets live in one contiguous slab of entries linked by 32-bit
/// indices; each output has a compact {head, tail, size} header, and
/// popped entries go onto a free list that the next push reuses. The
/// slab therefore grows only to the bank's peak occupancy, and a slot's
/// pushes and pops stay within a few hot cache lines.
///
/// The bank keeps no occupancy bits: whoever schedules from it (the
/// switch simulator's request matrix) tracks the empty <-> non-empty
/// transitions itself, from empty() before a push and after a pop.
class VoqBank {
public:
    /// Largest outputs × capacity a bank accepts: every slab entry needs
    /// a 32-bit index, and one index value is reserved as the null link.
    static constexpr std::size_t kMaxEntries = UINT32_MAX;

    VoqBank() = default;
    /// One queue of at most `capacity` entries per output. Throws
    /// std::invalid_argument when outputs × capacity exceeds kMaxEntries.
    VoqBank(std::size_t outputs, std::size_t capacity);

    [[nodiscard]] std::size_t outputs() const noexcept { return queues_.size(); }

    /// Packets queued for `output`.
    [[nodiscard]] std::size_t size(std::size_t output) const noexcept {
        return queues_[output].size;
    }
    [[nodiscard]] bool empty(std::size_t output) const noexcept {
        return queues_[output].size == 0;
    }
    [[nodiscard]] bool full(std::size_t output) const noexcept {
        return queues_[output].size == capacity_;
    }

    /// Enqueue into the destination's queue; false (drop) when full.
    /// May allocate (the slab grows to peak occupancy), hence not
    /// noexcept.
    bool push(const Packet& p);
    /// Dequeue the head packet destined for `output` (precondition: the
    /// queue is non-empty).
    Packet pop(std::size_t output) noexcept {
        Queue& q = queues_[output];
        assert(q.size != 0);
        const std::uint32_t e = q.head;
        q.head = next_[e];
        --q.size;
        next_[e] = free_;
        free_ = e;
        --total_;
        return slab_[e];
    }

    /// Total packets buffered across all queues (O(1)).
    [[nodiscard]] std::size_t total_buffered() const noexcept { return total_; }
    /// Slab entries allocated so far: the bank's peak occupancy.
    [[nodiscard]] std::size_t slab_size() const noexcept { return slab_.size(); }

private:
    static constexpr std::uint32_t kNil = UINT32_MAX;

    struct Queue {
        std::uint32_t head = kNil;
        std::uint32_t tail = kNil;
        std::uint32_t size = 0;
    };

    std::vector<Queue> queues_;
    std::vector<Packet> slab_;
    std::vector<std::uint32_t> next_;  // link of each slab entry
    std::uint32_t free_ = kNil;        // head of the free-entry list
    std::size_t capacity_ = 0;
    std::size_t total_ = 0;
};

}  // namespace lcf::sim
