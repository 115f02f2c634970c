#include "oracles/twin.hpp"

#include <type_traits>

#include "core/factory.hpp"
#include "oracles/baseline_oracles.hpp"
#include "oracles/lcf_reference.hpp"

namespace lcf::oracle {

namespace {

using sched::SchedulerConfig;

template <typename S>
std::unique_ptr<sched::Scheduler> baseline(const SchedulerConfig& config) {
    if constexpr (std::is_constructible_v<S, const SchedulerConfig&>) {
        return std::make_unique<S>(config);
    } else {
        return std::make_unique<S>();
    }
}

template <core::RrVariant kVariant>
std::unique_ptr<sched::Scheduler> central(const SchedulerConfig&) {
    return std::make_unique<core::LcfCentralReferenceScheduler>(
        core::LcfCentralOptions{.variant = kVariant});
}

template <bool kRoundRobin>
std::unique_ptr<sched::Scheduler> dist(const SchedulerConfig& config) {
    return std::make_unique<core::LcfDistReferenceScheduler>(
        core::LcfDistOptions{.iterations = config.iterations,
                             .round_robin = kRoundRobin});
}

// Rows keyed by registry row name. A row missing here loses its
// differential checks; SchedEquivalence.EveryOptimizedSchedulerHasATwin
// pins the set.
constexpr core::SchedulerEntry kTwins[] = {
    {"lcf_central", central<core::RrVariant::kNone>},
    {"lcf_central_rr", central<core::RrVariant::kInterleaved>},
    {"lcf_dist_rr", dist<true>},
    {"lcf_dist", dist<false>},
    {"pim", baseline<PimOracle>},
    {"islip", baseline<IslipOracle>},
    {"wfront", baseline<WavefrontOracle>},
    {"fifo", baseline<FifoRrOracle>},
    {"lcf_central_rr_single", central<core::RrVariant::kSingle>},
    {"lcf_central_rr_first", central<core::RrVariant::kDiagonalFirst>},
    {"ilqf", baseline<IlqfOracle>},
    {"rrm", baseline<RrmOracle>},
};

}  // namespace

std::unique_ptr<sched::Scheduler> make_twin(
    std::string_view name, const sched::SchedulerConfig& config) {
    for (const auto& twin : kTwins) {
        if (twin.name == name) return twin.make(config);
    }
    return nullptr;
}

}  // namespace lcf::oracle
