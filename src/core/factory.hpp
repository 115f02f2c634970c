#pragma once
// Name-based scheduler construction, covering the paper's entire
// Figure 12 line-up plus the maximum-size-matching reference. The
// `outbuf` configuration is not a scheduler (it is a different switch
// architecture) and is selected through sim::SwitchMode instead.

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "sched/scheduler.hpp"

namespace lcf::core {

/// One registered scheduler.
struct SchedulerEntry {
    using Make =
        std::unique_ptr<sched::Scheduler> (*)(const sched::SchedulerConfig&);
    std::string_view name;
    Make make;
};

/// Every registered scheduler, in scheduler_names() order.
std::span<const SchedulerEntry> scheduler_registry();

/// Construct a registered scheduler by name. Throws
/// std::invalid_argument for unknown names.
std::unique_ptr<sched::Scheduler> make_scheduler(
    std::string_view name, const sched::SchedulerConfig& config = {});

/// True when `name` is accepted by make_scheduler().
bool is_scheduler_name(std::string_view name);

/// The registry's names: the Figure 12 legend order (without "outbuf",
/// which is a switch mode), then the extensions.
const std::vector<std::string>& scheduler_names();

/// The nine Figure 12 configurations in legend order, "outbuf" included.
const std::vector<std::string>& figure12_names();

}  // namespace lcf::core
