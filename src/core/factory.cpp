#include "core/factory.hpp"

#include <cstddef>
#include <stdexcept>

#include "core/lcf_central.hpp"
#include "core/lcf_dist.hpp"
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

template <RrVariant kVariant>
std::unique_ptr<sched::Scheduler> central(const sched::SchedulerConfig&) {
    return std::make_unique<LcfCentralScheduler>(
        LcfCentralOptions{.variant = kVariant});
}

template <bool kRoundRobin>
std::unique_ptr<sched::Scheduler> dist(const sched::SchedulerConfig& config) {
    return std::make_unique<LcfDistScheduler>(LcfDistOptions{
        .iterations = config.iterations, .round_robin = kRoundRobin});
}

// The single list of schedulers. Row order is scheduler_names() order,
// which fuzz_scheduler indexes into: reordering rows re-targets every
// committed corpus input. The first kFigure12Schedulers rows are the
// Figure 12 legend in order.
constexpr SchedulerEntry kRegistry[] = {
    {"lcf_central", central<RrVariant::kNone>},
    {"lcf_central_rr", central<RrVariant::kInterleaved>},
    {"lcf_dist_rr", dist<true>},
    {"lcf_dist", dist<false>},
    {"pim", configured<sched::PimScheduler>},
    {"islip", configured<sched::IslipScheduler>},
    {"wfront", plain<sched::WavefrontScheduler>},
    {"fifo", plain<sched::FifoRrScheduler>},
    {"maxsize", plain<sched::MaxSizeScheduler>},
    {"lcf_central_rr_single", central<RrVariant::kSingle>},
    {"lcf_central_rr_first", central<RrVariant::kDiagonalFirst>},
    {"ilqf", configured<sched::IlqfScheduler>},
    {"rrm", configured<sched::RrmScheduler>},
};
constexpr std::ptrdiff_t kFigure12Schedulers = 8;

/// The constructor registered for `name`, or null.
SchedulerEntry::Make find_maker(std::string_view name) {
    for (const auto& entry : kRegistry) {
        if (entry.name == name) return entry.make;
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
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out(scheduler_names().begin(),
                                     scheduler_names().begin() +
                                         kFigure12Schedulers);
        out.emplace_back("outbuf");
        return out;
    }();
    return names;
}

}  // namespace lcf::core
