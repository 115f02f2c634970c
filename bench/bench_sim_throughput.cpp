// google-benchmark end-to-end simulation throughput: whole SwitchSim
// runs (arrivals -> PQ/VOQ -> scheduling -> transfer -> metrics) in
// slots per second, not just raw schedule() calls. This is the number a
// Figure 12 sweep, a replication batch, or a soak run actually pays
// per grid point, and the regression gate for the batched-arrival /
// hot-slot-path work (see docs/performance.md).
//
// Grid: VOQ lcf_central / lcf_dist / islip, n in {16, 64, 256},
// uniform and bursty traffic, offered loads 0.7 / 0.9 / 1.0.
// Benchmark names encode the point as
//   BM_SimThroughput/<scheduler>/<traffic>/<n>/<load%>
// and each run reports items/sec == simulated slots/sec.
//
// BM_SwitchSimOwnPath/<n>/<load%>: a VOQ SwitchSim under uniform traffic
// driven by a bench-local greedy scheduler that reads about one request
// word per input, so the row moves with the simulator's own packet path
// (arrivals, PQ -> VOQ, transfer, metrics) and not with a scheduler.
//
// One Clint row, BM_ClintIntegrated/<hosts>/<bulk load%>: both Clint
// channels in lockstep (clint::run_clint, integrated mode) at the
// perfbench clint-integrated-ber settings — 16 hosts, bulk load 0.8,
// quick load 0.1, BER 1e-5.
//
// Usage: bench_sim_throughput [--json <path>] [google-benchmark flags...]
// --json <path> is shorthand for
// --benchmark_out=<path> --benchmark_out_format=json.

#include <benchmark/benchmark.h>

#include <bit>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "clint/clint_sim.hpp"
#include "sched/scheduler.hpp"
#include "sim/runner.hpp"
#include "sim/switch_sim.hpp"
#include "traffic/bernoulli.hpp"

namespace {

// Greedy maximal matching in one pass over the inputs: input i takes the
// first free output it requests, searching word by word from a start
// that rotates with i and the cycle (so no output is always last). At
// high load the first word searched almost always has a candidate.
class GreedyScheduler final : public lcf::sched::Scheduler {
public:
    void reset(std::size_t inputs, std::size_t outputs) override {
        inputs_ = inputs;
        outputs_ = outputs;
        words_ = (outputs + 63) / 64;
        free_.assign(words_, 0);
        cycle_ = 0;
    }

    void schedule(const lcf::sched::RequestMatrix& requests,
                  lcf::sched::Matching& out) override {
        out.reset(inputs_, outputs_);
        free_.assign(words_, ~std::uint64_t{0});
        for (std::size_t i = 0; i < inputs_; ++i) {
            const lcf::util::BitVec& row = requests.row(i);
            const std::size_t start = (i + cycle_) % outputs_;
            const std::size_t first_word = start / 64;
            const std::uint64_t high = ~std::uint64_t{0} << (start % 64);
            // Words first_word .. words_ - 1, 0 .. first_word, the start
            // word's bits at or above `start` first and the rest last.
            for (std::size_t k = 0; k <= words_; ++k) {
                const std::size_t w = (first_word + k) % words_;
                std::uint64_t bits = row.word(w) & free_[w];
                if (k == 0) bits &= high;
                if (k == words_) bits &= ~high;
                if (bits != 0) {
                    const auto bit = static_cast<std::size_t>(
                        std::countr_zero(bits));
                    out.match(i, w * 64 + bit);
                    free_[w] &= ~(std::uint64_t{1} << bit);
                    break;
                }
            }
        }
        ++cycle_;
    }

    [[nodiscard]] std::string_view name() const noexcept override {
        return "greedy";
    }

private:
    std::size_t inputs_ = 0;
    std::size_t outputs_ = 0;
    std::size_t words_ = 0;
    std::vector<std::uint64_t> free_;  // bit j set: output j still free
    std::size_t cycle_ = 0;
};

// One benchmark iteration simulates this many slots: enough to amortise
// construction and fill the queues past the warm-up transient, small
// enough that google-benchmark still gets several iterations per repeat.
constexpr std::uint64_t kSlots = 2048;
constexpr std::uint64_t kWarmup = 256;

void run_sim_point(benchmark::State& state, const std::string& sched,
                   const std::string& traffic, std::size_t ports,
                   double load) {
    lcf::sim::SimConfig config;
    config.ports = ports;
    config.slots = kSlots;
    config.warmup_slots = kWarmup;
    config.seed = 42;
    const lcf::sched::SchedulerConfig sched_config{.iterations = 4,
                                                   .seed = 17};
    for (auto _ : state) {
        const auto result =
            lcf::sim::run_named(sched, config, traffic, load, sched_config);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSlots));
}

void run_own_path_point(benchmark::State& state, std::size_t ports,
                        double load) {
    lcf::sim::SimConfig config;
    config.ports = ports;
    config.slots = kSlots;
    config.warmup_slots = kWarmup;
    config.seed = 42;
    for (auto _ : state) {
        lcf::sim::SwitchSim sim(
            config, std::make_unique<GreedyScheduler>(),
            std::make_unique<lcf::traffic::BernoulliUniform>(load));
        const auto result = sim.run();
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSlots));
}

void run_clint_point(benchmark::State& state) {
    lcf::clint::ClintConfig config;
    config.hosts = 16;
    config.slots = kSlots;
    config.warmup_slots = kWarmup;
    config.seed = 42;
    config.bulk_load = 0.8;
    config.quick_load = 0.1;
    config.bit_error_rate = 1e-5;
    config.integrated = true;
    for (auto _ : state) {
        const auto result = lcf::clint::run_clint(config);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(kSlots));
}

void register_grid() {
    const std::vector<std::string> scheds = {"lcf_central", "lcf_dist",
                                             "islip"};
    const std::vector<std::string> traffics = {"uniform", "bursty"};
    const std::vector<std::size_t> radices = {16, 64, 256};
    const std::vector<int> load_pcts = {70, 90, 100};
    for (const auto& sched : scheds) {
        for (const auto& traffic : traffics) {
            for (const std::size_t n : radices) {
                for (const int pct : load_pcts) {
                    const std::string name =
                        "BM_SimThroughput/" + sched + "/" + traffic + "/" +
                        std::to_string(n) + "/" + std::to_string(pct);
                    benchmark::RegisterBenchmark(
                        name.c_str(),
                        [sched, traffic, n, pct](benchmark::State& state) {
                            run_sim_point(state, sched, traffic, n,
                                          static_cast<double>(pct) / 100.0);
                        })
                        ->Unit(benchmark::kMillisecond);
                }
            }
        }
    }
    for (const std::size_t n : radices) {
        const std::string name =
            "BM_SwitchSimOwnPath/" + std::to_string(n) + "/90";
        benchmark::RegisterBenchmark(name.c_str(),
                                     [n](benchmark::State& state) {
                                         run_own_path_point(state, n, 0.9);
                                     })
            ->Unit(benchmark::kMillisecond);
    }
    benchmark::RegisterBenchmark("BM_ClintIntegrated/16/80", run_clint_point)
        ->Unit(benchmark::kMillisecond);
}

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
    register_grid();
    benchmark::Initialize(&new_argc, args.data());
    if (benchmark::ReportUnrecognizedArguments(new_argc, args.data())) {
        return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
