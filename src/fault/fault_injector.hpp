#pragma once
// Deterministic execution of a FaultPlan, and the one owner of the
// simulations' fault and loss model. One FaultInjector accompanies one
// simulated channel/switch; the channel routes every wire through
// transmit() (which wraps the channel's own ErrorLink transforms with
// the plan's epoch faults), every abstract data/ack packet through
// corruption_probability() and packet_lost()/data_lost(), and reads
// host liveness from the per-slot host-up view that begin_slot()
// refreshes instead of keeping its own. All randomness comes from
// per-link RNG streams derived from the plan's seed, so fault
// realisations are independent of the simulation's traffic and
// baseline-error draws — adding a fault plan never perturbs what the
// underlying run would have done, and the same plan replays
// bit-identically.

#include <cstdint>
#include <span>
#include <vector>

#include "fault/fault_plan.hpp"
#include "util/rng.hpp"

namespace lcf::fault {

/// Everything the injector did to a run. Plain sums, mergeable across
/// runs/threads like obs::SchedCounters.
struct FaultCounters {
    std::uint64_t packets_dropped = 0;    ///< absorbed whole (loss or link down)
    std::uint64_t packets_truncated = 0;  ///< cut short in flight
    std::uint64_t packets_corrupted = 0;  ///< suffered >= 1 epoch bit flip
    std::uint64_t bits_flipped = 0;       ///< epoch-injected flips
    std::uint64_t crashes = 0;            ///< host crash transitions
    std::uint64_t restarts = 0;           ///< host restart transitions
    std::uint64_t stalled_slots = 0;      ///< scheduler-stall slots observed

    void merge(const FaultCounters& other) noexcept;
    friend bool operator==(const FaultCounters&,
                           const FaultCounters&) = default;
};

/// Probability that a `bits`-bit packet suffers at least one flip at an
/// independent per-bit error rate `ber`: 1-(1-ber)^bits. The channels'
/// base corruption probabilities for their abstract (nominally sized)
/// data and ack packets.
[[nodiscard]] double corruption_probability(double ber,
                                            std::size_t bits) noexcept;

/// Executes one FaultPlan against one simulated channel. Deterministic:
/// queries draw from per-link Xoshiro256 streams seeded from the plan.
class FaultInjector {
public:
    /// Validates the plan (throws std::invalid_argument when malformed).
    explicit FaultInjector(FaultPlan plan);

    /// Prepare for a run over `hosts` hosts/ports: derives one RNG
    /// stream per (link kind, index), marks every host up and forgets
    /// all counters.
    void reset(std::size_t hosts);

    /// Per-slot bookkeeping, once per simulated slot in slot order:
    /// counts the plan's crash/restart edges at `slot` and stall slots,
    /// and refreshes the host-up view. Returns the hosts that went down
    /// — up at the previous slot, down at this one — whose buffered
    /// state the caller destroys; a host inside overlapping crash
    /// intervals goes down once.
    std::span<const std::size_t> begin_slot(std::uint64_t slot);

    /// Host-up view as of the last begin_slot() (all up before it).
    [[nodiscard]] bool host_up(std::size_t host) const noexcept {
        return host_up_[host] != 0;
    }
    /// False while `host` is inside a crash interval.
    [[nodiscard]] bool host_up(std::size_t host,
                               std::uint64_t slot) const noexcept;
    /// False while the link is inside a down interval.
    [[nodiscard]] bool link_up(LinkKind kind, std::size_t index,
                               std::uint64_t slot) const noexcept;
    /// True while `slot` falls in a scheduler-stall interval.
    [[nodiscard]] bool scheduler_stalled(std::uint64_t slot) const noexcept;
    /// Additional bit-error probability active on the link at `slot`
    /// (independent epochs compose: 1 - prod(1 - ber_k)).
    [[nodiscard]] double extra_ber(LinkKind kind, std::size_t index,
                                   std::uint64_t slot) const noexcept;

    /// Abstract path: corruption probability of a `bits`-bit packet on
    /// the link at `slot`, from the channel's base probability `base`
    /// composed with the active epochs' extra bit-error rate:
    /// 1-(1-base)(1-extra)^bits. Exactly `base` when no epoch is active.
    [[nodiscard]] double corruption_probability(
        double base, std::size_t bits, LinkKind kind, std::size_t index,
        std::uint64_t slot) const noexcept;

    /// Wire path: apply the plan's faults for this link and slot to
    /// `wire` in place. Returns false when the packet is absorbed whole
    /// (link down or a loss draw); otherwise the packet may have been
    /// truncated and/or had epoch bit errors applied.
    bool transmit(LinkKind kind, std::size_t index, std::uint64_t slot,
                  std::vector<std::uint8_t>& wire);

    /// Abstract path, for payloads modelled by nominal size without
    /// materialised bytes: link-down check plus a whole-packet loss
    /// draw. True when the packet is lost. (Epoch bit errors on
    /// abstract paths are folded into corruption_probability().)
    bool packet_lost(LinkKind kind, std::size_t index, std::uint64_t slot);
    /// Abstract data packet from `source` to `target`: lost when the
    /// target is down in the host-up view, else per
    /// packet_lost(kData, source, slot).
    bool data_lost(std::size_t source, std::size_t target,
                   std::uint64_t slot) {
        return !host_up(target) || packet_lost(LinkKind::kData, source, slot);
    }

    [[nodiscard]] const FaultCounters& counters() const noexcept {
        return counters_;
    }
    [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
    [[nodiscard]] std::size_t hosts() const noexcept { return hosts_; }

private:
    [[nodiscard]] util::Xoshiro256& rng_for(LinkKind kind,
                                            std::size_t index) noexcept;

    FaultPlan plan_;
    std::size_t hosts_ = 0;
    std::vector<util::Xoshiro256> rngs_;  // kLinkKinds * hosts_
    std::vector<std::uint8_t> host_up_;   // the view, per host
    std::vector<std::size_t> went_down_;  // begin_slot()'s result
    FaultCounters counters_;
};

}  // namespace lcf::fault
