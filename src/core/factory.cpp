#include "core/factory.hpp"

#include <stdexcept>

#include "core/lcf_central.hpp"
#include "core/lcf_dist.hpp"
#include "core/lcf_reference.hpp"
#include "sched/fifo_rr.hpp"
#include "sched/ilqf.hpp"
#include "sched/islip.hpp"
#include "sched/maxsize.hpp"
#include "sched/pim.hpp"
#include "sched/rrm.hpp"
#include "sched/wavefront.hpp"

namespace lcf::core {

namespace {

template <typename S>
std::unique_ptr<sched::Scheduler> plain(const sched::SchedulerConfig&) {
    return std::make_unique<S>();
}

template <typename S>
std::unique_ptr<sched::Scheduler> configured(
    const sched::SchedulerConfig& config) {
    return std::make_unique<S>(config);
}

template <typename S, RrVariant kVariant>
std::unique_ptr<sched::Scheduler> central(const sched::SchedulerConfig&) {
    return std::make_unique<S>(LcfCentralOptions{.variant = kVariant});
}

template <typename S, bool kRoundRobin>
std::unique_ptr<sched::Scheduler> dist(const sched::SchedulerConfig& config) {
    return std::make_unique<S>(LcfDistOptions{
        .iterations = config.iterations, .round_robin = kRoundRobin});
}

using Central = LcfCentralScheduler;
using CentralRef = LcfCentralReferenceScheduler;

// The single list of schedulers. Row order is scheduler_names() order,
// which fuzz_scheduler indexes into: reordering rows re-targets every
// committed corpus input. The third column builds the per-bit
// `<name>_reference` twin kept as a differential oracle and perf
// "before" line; twins are not rows, so sweeps never enumerate them.
constexpr SchedulerEntry kRegistry[] = {
    {"lcf_central", central<Central, RrVariant::kNone>,
     central<CentralRef, RrVariant::kNone>},
    {"lcf_central_rr", central<Central, RrVariant::kInterleaved>,
     central<CentralRef, RrVariant::kInterleaved>},
    {"lcf_dist_rr", dist<LcfDistScheduler, true>,
     dist<LcfDistReferenceScheduler, true>},
    {"lcf_dist", dist<LcfDistScheduler, false>,
     dist<LcfDistReferenceScheduler, false>},
    {"pim", configured<sched::PimScheduler>, nullptr},
    {"islip", configured<sched::IslipScheduler>, nullptr},
    {"wfront", plain<sched::WavefrontScheduler>, nullptr},
    {"fifo", plain<sched::FifoRrScheduler>, nullptr},
    {"maxsize", plain<sched::MaxSizeScheduler>, nullptr},
    {"lcf_central_rr_single", central<Central, RrVariant::kSingle>,
     central<CentralRef, RrVariant::kSingle>},
    {"lcf_central_rr_first", central<Central, RrVariant::kDiagonalFirst>,
     central<CentralRef, RrVariant::kDiagonalFirst>},
    {"ilqf", configured<sched::IlqfScheduler>, nullptr},
    {"rrm", configured<sched::RrmScheduler>, nullptr},
};

/// The constructor registered for `name` (a row name, or a row name plus
/// kReferenceSuffix for its twin), or null.
SchedulerEntry::Make find_maker(std::string_view name) {
    const bool twin = name.ends_with(kReferenceSuffix);
    if (twin) name.remove_suffix(kReferenceSuffix.size());
    for (const auto& entry : kRegistry) {
        if (entry.name == name) return twin ? entry.make_reference : entry.make;
    }
    return nullptr;
}

}  // namespace

std::span<const SchedulerEntry> scheduler_registry() { return kRegistry; }

std::unique_ptr<sched::Scheduler> make_scheduler(
    std::string_view name, const sched::SchedulerConfig& config) {
    if (const auto make = find_maker(name)) return make(config);
    std::string message = "unknown scheduler name: " + std::string(name) +
                          " (valid names:";
    for (const auto& valid : scheduler_names()) message += " " + valid;
    throw std::invalid_argument(message + ")");
}

bool is_scheduler_name(std::string_view name) {
    return find_maker(name) != nullptr;
}

const std::vector<std::string>& scheduler_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto& entry : kRegistry) out.emplace_back(entry.name);
        return out;
    }();
    return names;
}

const std::vector<std::string>& figure12_names() {
    static const std::vector<std::string> names = {
        "lcf_central", "lcf_central_rr", "lcf_dist_rr", "lcf_dist",
        "pim",         "islip",          "wfront",      "fifo",
        "outbuf"};
    return names;
}

}  // namespace lcf::core
