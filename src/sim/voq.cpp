#include "sim/voq.hpp"

#include <stdexcept>

namespace lcf::sim {

VoqBank::VoqBank(std::size_t outputs, std::size_t capacity)
    : queues_(outputs), capacity_(capacity) {
    if (outputs != 0 && capacity > kMaxEntries / outputs) {
        throw std::invalid_argument(
            "VOQ bank too large: outputs x capacity must fit 32-bit links");
    }
}

bool VoqBank::push(const Packet& p) {
    Queue& q = queues_[p.destination];
    if (q.size == capacity_) return false;
    std::uint32_t e = free_;
    if (e != kNil) {
        free_ = next_[e];
        slab_[e] = p;
    } else {
        // Free list empty: every entry is in use, so the slab grows to
        // a new peak. outputs × capacity ≤ kMaxEntries bounds the index.
        e = static_cast<std::uint32_t>(slab_.size());
        slab_.push_back(p);
        next_.push_back(kNil);
    }
    next_[e] = kNil;
    if (q.size == 0) {
        q.head = e;
    } else {
        next_[q.tail] = e;
    }
    q.tail = e;
    ++q.size;
    ++total_;
    return true;
}

}  // namespace lcf::sim
