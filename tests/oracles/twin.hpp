#pragma once
// The one lookup for the per-bit differential oracles: the LCF twins of
// lcf_reference.hpp and the baseline oracles of baseline_oracles.hpp.

#include <memory>
#include <string_view>

#include "sched/scheduler.hpp"

namespace lcf::oracle {

/// The per-bit twin of the registered scheduler `name`, built from the
/// same config, or null when that scheduler has none.
std::unique_ptr<sched::Scheduler> make_twin(
    std::string_view name, const sched::SchedulerConfig& config = {});

}  // namespace lcf::oracle
