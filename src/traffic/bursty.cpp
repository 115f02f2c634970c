#include "traffic/bursty.hpp"

#include <stdexcept>

namespace lcf::traffic {

BurstyTraffic::BurstyTraffic(double load, double mean_burst)
    : PerInputTraffic(load) {
    if (mean_burst < 1.0) {
        throw std::invalid_argument("mean_burst must be >= 1");
    }
    p_end_burst_ = 1.0 / mean_burst;
    // Long-run fraction of ON slots is E[on] / (E[on] + E[off]) = load,
    // with E[on] = mean_burst. Solving gives E[off] and its geometric
    // parameter; load <= 0 or >= 1 degenerate to always-off/always-on.
    if (load <= 0.0) {
        p_start_burst_ = 0.0;
    } else if (load >= 1.0) {
        p_start_burst_ = 1.0;
        p_end_burst_ = 0.0;
    } else {
        const double mean_idle = mean_burst * (1.0 - load) / load;
        p_start_burst_ = 1.0 / mean_idle;
    }
}

}  // namespace lcf::traffic
