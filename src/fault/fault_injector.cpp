#include "fault/fault_injector.hpp"

#include <cassert>
#include <cmath>

#include "util/bitflip.hpp"

namespace lcf::fault {

namespace {

constexpr bool in_interval(std::uint64_t slot, std::uint64_t begin,
                           std::uint64_t end) noexcept {
    return slot >= begin && slot < end;
}

/// Composes the `rate` of every epoch active on the link at `slot` as
/// independent events: 1 - prod(1 - rate_k).
template <typename Epoch>
double compose(const std::vector<Epoch>& epochs, double Epoch::*rate,
               LinkKind kind, std::size_t index, std::uint64_t slot) noexcept {
    double keep = 1.0;
    for (const Epoch& e : epochs) {
        if (e.link.matches(kind, index) && in_interval(slot, e.begin, e.end)) {
            keep *= 1.0 - e.*rate;
        }
    }
    return 1.0 - keep;
}

}  // namespace

double corruption_probability(double ber, std::size_t bits) noexcept {
    return 1.0 - std::pow(1.0 - ber, static_cast<double>(bits));
}

void FaultCounters::merge(const FaultCounters& other) noexcept {
    packets_dropped += other.packets_dropped;
    packets_truncated += other.packets_truncated;
    packets_corrupted += other.packets_corrupted;
    bits_flipped += other.bits_flipped;
    crashes += other.crashes;
    restarts += other.restarts;
    stalled_slots += other.stalled_slots;
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
    plan_.validate();
}

void FaultInjector::reset(std::size_t hosts) {
    hosts_ = hosts;
    rngs_.clear();
    rngs_.reserve(kLinkKinds * hosts);
    for (std::size_t kind = 0; kind < kLinkKinds; ++kind) {
        for (std::size_t index = 0; index < hosts; ++index) {
            rngs_.emplace_back(
                util::derive_seed(plan_.seed, kind * 4096 + index));
        }
    }
    host_up_.assign(hosts, 1);
    went_down_.clear();
    counters_ = FaultCounters{};
}

util::Xoshiro256& FaultInjector::rng_for(LinkKind kind,
                                         std::size_t index) noexcept {
    assert(index < hosts_);
    return rngs_[static_cast<std::size_t>(kind) * hosts_ + index];
}

std::span<const std::size_t> FaultInjector::begin_slot(std::uint64_t slot) {
    for (const auto& c : plan_.host_crashes) {
        if (c.crash_slot == slot) ++counters_.crashes;
        if (c.restart_slot == slot && c.restart_slot != kForever) {
            ++counters_.restarts;
        }
    }
    if (scheduler_stalled(slot)) ++counters_.stalled_slots;
    went_down_.clear();
    for (std::size_t h = 0; h < hosts_; ++h) {
        const bool up = host_up(h, slot);
        if (host_up_[h] != 0 && !up) went_down_.push_back(h);
        host_up_[h] = up ? 1 : 0;
    }
    return went_down_;
}

bool FaultInjector::host_up(std::size_t host,
                            std::uint64_t slot) const noexcept {
    for (const auto& c : plan_.host_crashes) {
        if (c.host == host && in_interval(slot, c.crash_slot, c.restart_slot)) {
            return false;
        }
    }
    return true;
}

bool FaultInjector::link_up(LinkKind kind, std::size_t index,
                            std::uint64_t slot) const noexcept {
    for (const auto& d : plan_.link_down_intervals) {
        if (d.link.matches(kind, index) && in_interval(slot, d.begin, d.end)) {
            return false;
        }
    }
    return true;
}

bool FaultInjector::scheduler_stalled(std::uint64_t slot) const noexcept {
    for (const auto& s : plan_.scheduler_stalls) {
        if (in_interval(slot, s.begin, s.end)) return true;
    }
    return false;
}

double FaultInjector::extra_ber(LinkKind kind, std::size_t index,
                                std::uint64_t slot) const noexcept {
    return compose(plan_.bit_error_epochs, &BitErrorEpoch::bit_error_rate,
                   kind, index, slot);
}

double FaultInjector::corruption_probability(
    double base, std::size_t bits, LinkKind kind, std::size_t index,
    std::uint64_t slot) const noexcept {
    const double extra = extra_ber(kind, index, slot);
    if (extra <= 0.0) return base;
    return 1.0 -
           (1.0 - base) * std::pow(1.0 - extra, static_cast<double>(bits));
}

bool FaultInjector::transmit(LinkKind kind, std::size_t index,
                             std::uint64_t slot,
                             std::vector<std::uint8_t>& wire) {
    if (packet_lost(kind, index, slot)) return false;
    const double p_trunc = compose(plan_.packet_loss_epochs,
                                   &PacketLossEpoch::truncation, kind, index,
                                   slot);
    if (p_trunc > 0.0 && !wire.empty() &&
        rng_for(kind, index).next_bool(p_trunc)) {
        // Cut to a strictly shorter length, possibly zero bytes.
        wire.resize(rng_for(kind, index).next_below(wire.size()));
        ++counters_.packets_truncated;
    }
    const double ber = extra_ber(kind, index, slot);
    if (ber > 0.0 && !wire.empty()) {
        const std::uint64_t flips =
            util::flip_bits({wire.data(), wire.size()}, ber,
                            rng_for(kind, index));
        if (flips > 0) {
            counters_.bits_flipped += flips;
            ++counters_.packets_corrupted;
        }
    }
    return true;
}

bool FaultInjector::packet_lost(LinkKind kind, std::size_t index,
                                std::uint64_t slot) {
    if (!link_up(kind, index, slot)) {
        ++counters_.packets_dropped;
        return true;
    }
    const double p_loss =
        compose(plan_.packet_loss_epochs, &PacketLossEpoch::loss, kind, index,
                slot);
    if (p_loss > 0.0 && rng_for(kind, index).next_bool(p_loss)) {
        ++counters_.packets_dropped;
        return true;
    }
    return false;
}

}  // namespace lcf::fault
