// google-benchmark microbenchmarks: raw schedule() computation cost per
// scheduler and radix, on random request matrices of fixed density.
// This is the software analogue of §6.2's speed comparison (O(n)
// sequential central scheduler vs O(log n)-iteration distributed one).
//
// The BM_*Reference benchmarks run the pre-optimization per-bit LCF
// transcriptions (oracle::make_twin, from the test-only lcf_oracles
// library), so one run of this binary yields matched before/after
// numbers for the word-parallel rewrite (see docs/performance.md).
//
// BM_LcfCentralReplay/<n>/<load%> replays the request matrices a
// SwitchSim under lcf_central really schedules (uniform Bernoulli
// traffic at that load) through one persistent matrix, the way the
// simulator drives it. Rescheduling a handful of warm random matrices
// lets the branch predictor learn them; a real sequence does not.
// BM_LcfDistReplay/<n>/<load%> does the same for lcf_dist, on the
// matrices a SwitchSim under lcf_dist schedules.
//
// Usage: bench_sched_speed [--json <path>] [google-benchmark flags...]
// --json <path> is shorthand for
// --benchmark_out=<path> --benchmark_out_format=json.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "core/factory.hpp"
#include "hw/rtl_central.hpp"
#include "oracles/twin.hpp"
#include "sched/scheduler.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/traffic.hpp"
#include "util/rng.hpp"

namespace {

using lcf::sched::Matching;
using lcf::sched::RequestMatrix;

std::vector<RequestMatrix> make_inputs(std::size_t n, double density,
                                       std::size_t count) {
    lcf::util::Xoshiro256 rng(n * 1000 + 17);
    std::vector<RequestMatrix> inputs;
    inputs.reserve(count);
    for (std::size_t k = 0; k < count; ++k) {
        RequestMatrix r(n);
        for (std::size_t i = 0; i < n; ++i) {
            // 64 Bernoulli(density) bits per draw; set_word() trims the
            // bits beyond the row length.
            auto& row = r.row(i);
            for (std::size_t wi = 0; wi < row.word_count(); ++wi) {
                row.set_word(wi, rng.next_bernoulli_word(density));
            }
        }
        inputs.push_back(std::move(r));
    }
    return inputs;
}

constexpr bool kTwin = true;

// Times the registered scheduler `name`, or its per-bit twin.
void run_scheduler(benchmark::State& state, const std::string& name,
                   bool twin = false) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const lcf::sched::SchedulerConfig config{.iterations = 4, .seed = 2};
    auto s = twin ? lcf::oracle::make_twin(name, config)
                  : lcf::core::make_scheduler(name, config);
    s->reset(n, n);
    const auto inputs = make_inputs(n, 0.35, 32);
    Matching m;
    std::size_t k = 0;
    for (auto _ : state) {
        s->schedule(inputs[k], m);
        benchmark::DoNotOptimize(m);
        k = (k + 1) % inputs.size();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LcfCentral(benchmark::State& state) {
    run_scheduler(state, "lcf_central");
}
void BM_LcfCentralRr(benchmark::State& state) {
    run_scheduler(state, "lcf_central_rr");
}
void BM_LcfDist(benchmark::State& state) { run_scheduler(state, "lcf_dist"); }
void BM_LcfDistRr(benchmark::State& state) {
    run_scheduler(state, "lcf_dist_rr");
}
void BM_LcfCentralReference(benchmark::State& state) {
    run_scheduler(state, "lcf_central", kTwin);
}
void BM_LcfCentralRrReference(benchmark::State& state) {
    run_scheduler(state, "lcf_central_rr", kTwin);
}
void BM_LcfDistReference(benchmark::State& state) {
    run_scheduler(state, "lcf_dist", kTwin);
}
void BM_LcfDistRrReference(benchmark::State& state) {
    run_scheduler(state, "lcf_dist_rr", kTwin);
}
void BM_Pim(benchmark::State& state) { run_scheduler(state, "pim"); }
void BM_Islip(benchmark::State& state) { run_scheduler(state, "islip"); }
void BM_Wavefront(benchmark::State& state) { run_scheduler(state, "wfront"); }
void BM_Fifo(benchmark::State& state) { run_scheduler(state, "fifo"); }
void BM_MaxSize(benchmark::State& state) { run_scheduler(state, "maxsize"); }

void BM_RtlDatapath(benchmark::State& state) {
    const auto n = static_cast<std::size_t>(state.range(0));
    lcf::hw::RtlCentralScheduler s;
    s.reset(n, n);
    const auto inputs = make_inputs(n, 0.35, 32);
    Matching m;
    std::size_t k = 0;
    for (auto _ : state) {
        s.schedule(inputs[k], m);
        benchmark::DoNotOptimize(m);
        k = (k + 1) % inputs.size();
    }
}

// A captured request sequence: matrix 0, then bit flips. Applying
// flips[ends[t - 1], ends[t]) to matrix t gives matrix t + 1, and the
// last range leads back to matrix 0, so a replay can cycle.
struct RequestSequence {
    RequestMatrix first;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> flips;
    std::vector<std::size_t> ends;
};

// Passes every schedule() call on to `inner` and, after the first
// `skip` calls, records the matrices it is given.
class CapturingScheduler final : public lcf::sched::Scheduler {
public:
    CapturingScheduler(std::unique_ptr<lcf::sched::Scheduler> inner,
                       std::uint64_t skip, RequestSequence& out)
        : inner_(std::move(inner)), skip_(skip), out_(out) {}

    void reset(std::size_t inputs, std::size_t outputs) override {
        inner_->reset(inputs, outputs);
    }
    void schedule(const RequestMatrix& requests, Matching& out) override {
        if (calls_ == skip_) out_.first = requests;
        if (calls_ > skip_) record(prev_, requests);
        if (calls_++ >= skip_) prev_ = requests;
        inner_->schedule(requests, out);
    }
    [[nodiscard]] std::string_view name() const noexcept override {
        return inner_->name();
    }
    /// Close the cycle: the flips from the last matrix back to the first.
    void finish() { record(prev_, out_.first); }

private:
    void record(const RequestMatrix& from, const RequestMatrix& to) {
        for (std::size_t i = 0; i < to.inputs(); ++i) {
            for (std::size_t wi = 0; wi < to.row(i).word_count(); ++wi) {
                for (std::uint64_t d = from.row(i).word(wi) ^ to.row(i).word(wi);
                     d != 0; d &= d - 1) {
                    const auto j = wi * lcf::util::BitVec::kWordBits +
                                   static_cast<std::size_t>(std::countr_zero(d));
                    out_.flips.emplace_back(static_cast<std::uint32_t>(i),
                                            static_cast<std::uint32_t>(j));
                }
            }
        }
        out_.ends.push_back(out_.flips.size());
    }

    std::unique_ptr<lcf::sched::Scheduler> inner_;
    std::uint64_t skip_;
    RequestSequence& out_;
    std::uint64_t calls_ = 0;
    RequestMatrix prev_;
};

// The matrices `scheduler` schedules in `slots` slots of an n-port
// SwitchSim at uniform Bernoulli `load`, after `warmup` slots.
RequestSequence capture_sequence(const std::string& scheduler, std::size_t n,
                                 double load, std::uint64_t warmup,
                                 std::uint64_t slots) {
    RequestSequence seq;
    auto capturing = std::make_unique<CapturingScheduler>(
        lcf::core::make_scheduler(scheduler), warmup, seq);
    CapturingScheduler& capture = *capturing;
    lcf::sim::SimConfig config;
    config.ports = n;
    config.slots = warmup + slots;
    config.warmup_slots = warmup;
    config.seed = 42;
    lcf::sim::SwitchSim sim(config, std::move(capturing),
                            lcf::traffic::make_traffic("uniform", load));
    sim.run();
    capture.finish();
    return seq;
}

// capture_sequence() for one replay row, run once per process: the
// library calls a benchmark function again for each iteration-count
// trial, and a capture at n=256 takes about a second.
const RequestSequence& cached_sequence(const std::string& scheduler,
                                       std::size_t n, std::int64_t load_pct) {
    static std::map<std::tuple<std::string, std::size_t, std::int64_t>,
                    RequestSequence>
        cache;
    const auto [it, fresh] = cache.try_emplace({scheduler, n, load_pct});
    if (fresh) {
        it->second = capture_sequence(
            scheduler, n, static_cast<double>(load_pct) / 100.0, 1000, 2000);
    }
    return it->second;
}

// Replays the captured sequence of `scheduler` through that scheduler.
void replay(benchmark::State& state, const std::string& scheduler) {
    const auto n = static_cast<std::size_t>(state.range(0));
    const RequestSequence& seq = cached_sequence(scheduler, n, state.range(1));
    auto s = lcf::core::make_scheduler(scheduler);
    s->reset(n, n);
    // One persistent matrix, kept current through set() as SwitchSim
    // keeps its own; the timed loop includes those set() calls.
    RequestMatrix requests = seq.first;
    requests.sync_columns();
    Matching m;
    std::size_t t = 0;
    for (auto _ : state) {
        s->schedule(requests, m);
        benchmark::DoNotOptimize(m);
        for (std::size_t f = t == 0 ? 0 : seq.ends[t - 1]; f < seq.ends[t];
             ++f) {
            const auto [i, j] = seq.flips[f];
            requests.set(i, j, !requests.get(i, j));
        }
        t = t + 1 == seq.ends.size() ? 0 : t + 1;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

void BM_LcfCentralReplay(benchmark::State& state) {
    replay(state, "lcf_central");
}
void BM_LcfDistReplay(benchmark::State& state) { replay(state, "lcf_dist"); }

constexpr std::int64_t kRadices[] = {8, 16, 32, 64, 128, 256};

void radix_args(benchmark::internal::Benchmark* b) {
    for (const auto n : kRadices) b->Arg(n);
}

BENCHMARK(BM_LcfCentral)->Apply(radix_args);
BENCHMARK(BM_LcfCentralRr)->Apply(radix_args);
BENCHMARK(BM_LcfDist)->Apply(radix_args);
BENCHMARK(BM_LcfDistRr)->Apply(radix_args);
BENCHMARK(BM_LcfCentralReference)->Apply(radix_args);
BENCHMARK(BM_LcfCentralRrReference)->Apply(radix_args);
BENCHMARK(BM_LcfDistReference)->Apply(radix_args);
BENCHMARK(BM_LcfDistRrReference)->Apply(radix_args);
BENCHMARK(BM_Pim)->Apply(radix_args);
BENCHMARK(BM_Islip)->Apply(radix_args);
BENCHMARK(BM_Wavefront)->Apply(radix_args);
BENCHMARK(BM_Fifo)->Apply(radix_args);
BENCHMARK(BM_MaxSize)->Apply(radix_args);
BENCHMARK(BM_RtlDatapath)->Arg(8)->Arg(16)->Arg(32);
BENCHMARK(BM_LcfCentralReplay)->ArgsProduct({{64, 128, 256}, {50, 90, 99}});
BENCHMARK(BM_LcfDistReplay)->ArgsProduct({{64, 128, 256}, {50, 90, 99}});

}  // namespace

int main(int argc, char** argv) {
    // Translate the repo-conventional `--json <path>` into
    // google-benchmark's output flags before Initialize() sees argv.
    std::vector<std::string> storage;
    storage.reserve(static_cast<std::size_t>(argc) + 2);
    for (int i = 0; i < argc; ++i) {
        if (std::string_view(argv[i]) == "--json" && i + 1 < argc) {
            storage.emplace_back(std::string("--benchmark_out=") + argv[i + 1]);
            storage.emplace_back("--benchmark_out_format=json");
            ++i;
        } else {
            storage.emplace_back(argv[i]);
        }
    }
    std::vector<char*> args;
    args.reserve(storage.size());
    for (auto& s : storage) args.push_back(s.data());
    int new_argc = static_cast<int>(args.size());
    benchmark::Initialize(&new_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
