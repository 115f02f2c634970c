// Fuzz harness for the scheduler stack: an arbitrary byte string picks a
// registered scheduler, a switch radix, and a short sequence of request
// matrices, then drives schedule() under obs::ParanoidChecker with
// throw-on-violation enabled. Checked on every cycle:
//
//   1. the ParanoidChecker invariants (valid partial permutation,
//      request-backed grants, NRQ/NGT consistency, §3 diagonal-fairness
//      window for the rotating variants, iteration budgets),
//   2. schedulers with a per-bit twin (oracle::make_twin: the lcf_*
//      `*_reference` transcriptions and the baseline oracles)
//      stay bit-identical to it — matching AND last_iterations() — on
//      adversarial request sequences, not just the random traffic the
//      equivalence suite draws.
//
// Seed corpus: fuzz/corpus/scheduler (tools/make_fuzz_corpus.py).

#include <cstdint>
#include <exception>
#include <string>
#include <vector>

#include "core/factory.hpp"
#include "fuzz_common.hpp"
#include "obs/paranoid_checker.hpp"
#include "oracles/twin.hpp"
#include "sched/matching.hpp"
#include "sched/request_matrix.hpp"
#include "sched/scheduler.hpp"

namespace {

constexpr std::size_t kMaxPorts = 16;
constexpr std::size_t kMaxCycles = 12;

/// iLQF wants per-VOQ queue lengths; derive deterministic ones from the
/// request bits so the weight structure varies with the fuzz input.
void feed_queue_lengths(lcf::sched::Scheduler& sched,
                        const lcf::sched::RequestMatrix& requests) {
    if (!sched.wants_queue_lengths()) return;
    const std::size_t n_in = requests.inputs();
    const std::size_t n_out = requests.outputs();
    std::vector<std::uint32_t> lengths(n_in * n_out, 0);
    for (std::size_t i = 0; i < n_in; ++i) {
        for (std::size_t j = 0; j < n_out; ++j) {
            if (requests.get(i, j)) {
                lengths[i * n_out + j] =
                    static_cast<std::uint32_t>(1 + (i * 7 + j * 3) % 5);
            }
        }
    }
    sched.observe_queue_lengths({lengths.data(), lengths.size()}, n_out);
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
    namespace core = lcf::core;
    namespace sched = lcf::sched;
    lcf::fuzz::ByteReader in(data, size);

    // Rows are picked in registry order, which the corpus depends on.
    const auto registry = core::scheduler_registry();
    const auto& entry = registry[in.index(registry.size())];
    const std::string name(entry.name);
    const std::size_t ports = 1 + in.index(kMaxPorts);
    const std::size_t cycles = 1 + in.index(kMaxCycles);
    const sched::SchedulerConfig config{.iterations = 1 + in.index(4),
                                        .seed = in.u8()};

    const auto scheduler = entry.make(config);
    scheduler->reset(ports, ports);

    // Differential twin, when the scheduler has one.
    const auto reference = lcf::oracle::make_twin(entry.name, config);
    if (reference) reference->reset(ports, ports);

    lcf::obs::ParanoidChecker checker(
        lcf::obs::ParanoidChecker::options_for(*scheduler));
    checker.reset(ports, ports);

    sched::RequestMatrix requests(ports);
    sched::Matching matching(ports);
    sched::Matching ref_matching(ports);
    for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
        // One request row per input, one fuzz byte per row (kMaxPorts
        // outputs fit in 16 bits; reads past the input's end are zeros,
        // i.e. an idle tail).
        requests.clear();
        for (std::size_t i = 0; i < ports; ++i) {
            const unsigned row_hi = in.u8();  // sequenced: corpus bytes
            const unsigned row_lo = in.u8();  // must read compiler-independent
            const std::uint16_t row =
                static_cast<std::uint16_t>((row_hi << 8) | row_lo);
            for (std::size_t j = 0; j < ports; ++j) {
                if ((row >> j) & 1u) requests.set(i, j);
            }
        }

        feed_queue_lengths(*scheduler, requests);
        try {
            scheduler->schedule(requests, matching);
            checker.check_cycle(requests, matching);
            checker.check_iterations(scheduler->last_iterations());
        } catch (const std::exception& e) {
            LCF_FUZZ_ASSERT(false, "%s cycle %zu (n=%zu): %s", name.c_str(),
                            cycle, ports, e.what());
        }

        if (reference) {
            feed_queue_lengths(*reference, requests);
            reference->schedule(requests, ref_matching);
            LCF_FUZZ_ASSERT(
                matching.to_string() == ref_matching.to_string(),
                "%s diverges from twin at cycle %zu (n=%zu):\n  opt: %s\n  "
                "ref: %s",
                name.c_str(), cycle, ports, matching.to_string().c_str(),
                ref_matching.to_string().c_str());
            LCF_FUZZ_ASSERT(scheduler->last_iterations() ==
                                reference->last_iterations(),
                            "%s iteration count diverges from twin: %zu vs "
                            "%zu",
                            name.c_str(), scheduler->last_iterations(),
                            reference->last_iterations());
        }
    }
    return 0;
}
