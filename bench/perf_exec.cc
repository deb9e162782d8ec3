/**
 * @file
 * google-benchmark micro-benchmarks of the src/exec runtime — the
 * evidence behind the parallelisation claims:
 *
 *  - *Equivalence.* Every parallel benchmark validates, once per
 *    configuration, that its result is bit-identical to the serial
 *    (1-thread) result before timing anything; a mismatch aborts via
 *    state.SkipWithError, so a broken determinism contract cannot
 *    produce a green perf report.
 *  - *Scaling.* Each benchmark takes the pool size as its argument
 *    (1, 2, 4, hardware), so one run captures the speedup
 *    trajectory. On the acceptance hardware (>= 4 cores) the sweep
 *    and BEM benchmarks are expected to show >= 2x at 4 threads;
 *    single-core machines simply report flat times.
 *
 * Counters (tasks run, steals) are exported per benchmark so queue
 * imbalance is visible alongside the wall clock.
 */

#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include "exec/parallel.hh"
#include "sim/sweep.hh"
#include "exec/thread_pool.hh"
#include "extraction/bem.hh"
#include "sim/experiment.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"

namespace nanobus {
namespace {

const TechnologyNode &tech130 = itrsNode(ItrsNode::Nm130);

unsigned
hardwareThreads()
{
    unsigned hw = std::thread::hardware_concurrency();
    return hw >= 1 ? hw : 1;
}

void
poolSizeArgs(benchmark::internal::Benchmark *bench)
{
    bench->Arg(1)->Arg(2)->Arg(4);
    const unsigned hw = hardwareThreads();
    if (hw > 4)
        bench->Arg(static_cast<int>(hw));
}

/**
 * parallelReduce over rounding-sensitive values: the bit-equality
 * check across pool sizes is the cheapest possible canary for a
 * broken chunking rule.
 */
void
BM_ParallelReduce(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    constexpr size_t kN = 2000000;
    std::vector<double> values(kN);
    for (size_t i = 0; i < kN; ++i)
        values[i] = 1.0 / static_cast<double>(i + 1);

    auto reduceWith = [&](exec::ThreadPool &pool) {
        return exec::parallelReduce(
            pool, kN, 0.0,
            [&](size_t begin, size_t end) {
                double s = 0.0;
                for (size_t i = begin; i < end; ++i)
                    s += values[i];
                return s;
            },
            [](double acc, double p) { return acc + p; });
    };

    exec::ThreadPool serial_pool(1);
    const double serial = reduceWith(serial_pool);

    exec::ThreadPool pool(threads);
    const double parallel = reduceWith(pool);
    if (std::memcmp(&serial, &parallel, sizeof serial) != 0) {
        state.SkipWithError(
            "parallelReduce diverged from the serial result");
        return;
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(reduceWith(pool));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kN));
}
BENCHMARK(BM_ParallelReduce)->Apply(poolSizeArgs)
    ->Unit(benchmark::kMillisecond);

/** The Fig 3 kernel: one twin-bus energy study per pool size. */
void
BM_EnergyStudy(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    constexpr uint64_t kCycles = 50000;

    exec::ThreadPool serial_pool(1);
    const EnergyCell serial = runEnergyStudy(
        "eon", tech130, EncodingScheme::BusInvert, 1, kCycles, 1,
        &serial_pool);

    exec::ThreadPool pool(threads);
    const EnergyCell check = runEnergyStudy(
        "eon", tech130, EncodingScheme::BusInvert, 1, kCycles, 1,
        &pool);
    if (check.instruction.total().raw() !=
            serial.instruction.total().raw() ||
        check.data.total().raw() != serial.data.total().raw()) {
        state.SkipWithError(
            "energy study diverged from the serial result");
        return;
    }

    const exec::ExecCounters before = pool.counters();
    for (auto _ : state) {
        EnergyCell cell = runEnergyStudy(
            "eon", tech130, EncodingScheme::BusInvert, 1, kCycles, 1,
            &pool);
        benchmark::DoNotOptimize(cell);
    }
    const exec::ExecCounters delta = pool.counters() - before;
    state.counters["tasks"] = static_cast<double>(delta.tasks_run);
    state.counters["steals"] = static_cast<double>(delta.steals);
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(kCycles));
}
BENCHMARK(BM_EnergyStudy)->Apply(poolSizeArgs)
    ->Unit(benchmark::kMillisecond);

/**
 * A supervised batch of independent benchmark cells — the shape of
 * the paper's full evaluation, and the workload the >= 2x speedup
 * acceptance target refers to (whole simulations per shard amortize
 * every queue cost).
 */
void
BM_SweepBatch(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    constexpr uint64_t kCycles = 20000;
    const std::vector<std::string> benchmarks = {
        "eon", "swim", "crafty", "mcf"};

    auto runBatch = [&](exec::ThreadPool &pool) {
        std::vector<exec::SupervisedJob> jobs;
        for (const std::string &name : benchmarks) {
            jobs.push_back(
                {name, [name](exec::JobContext &) -> Result<SweepReport> {
                     EnergyCell cell = runEnergyStudy(
                         name, tech130, EncodingScheme::BusInvert, 1,
                         kCycles, 1);
                     SweepReport report;
                     report.records = cell.cycles;
                     report.instruction_energy = cell.instruction;
                     report.data_energy = cell.data;
                     report.completed = true;
                     return report;
                 }});
        }
        return exec::Supervisor(pool).run(jobs);
    };

    exec::ThreadPool serial_pool(1);
    const exec::SupervisedReport serial = runBatch(serial_pool);
    exec::ThreadPool pool(threads);
    const exec::SupervisedReport check = runBatch(pool);
    if (!serial.allSucceeded() || !check.allSucceeded()) {
        state.SkipWithError("sweep batch failed");
        return;
    }
    for (size_t i = 0; i < benchmarks.size(); ++i) {
        if (check.reports[i].data_energy.total().raw() !=
            serial.reports[i].data_energy.total().raw()) {
            state.SkipWithError(
                "sweep batch diverged from the serial result");
            return;
        }
    }

    for (auto _ : state) {
        exec::SupervisedReport batch = runBatch(pool);
        benchmark::DoNotOptimize(batch);
    }
    state.SetItemsProcessed(
        state.iterations() *
        static_cast<int64_t>(benchmarks.size()));
}
BENCHMARK(BM_SweepBatch)->Apply(poolSizeArgs)
    ->Unit(benchmark::kMillisecond);

/** Row-parallel BEM assembly + per-conductor solves. */
void
BM_BemExtraction(benchmark::State &state)
{
    const unsigned threads = static_cast<unsigned>(state.range(0));
    BusGeometry geometry = BusGeometry::forTechnology(tech130, 16);

    auto solveWith = [&](exec::ThreadPool &pool) {
        BemExtractor::Options options;
        options.panels_per_width = 8;
        options.pool = &pool;
        return BemExtractor(geometry, options).solveMaxwell();
    };

    exec::ThreadPool serial_pool(1);
    const Matrix serial = solveWith(serial_pool);
    exec::ThreadPool pool(threads);
    const Matrix check = solveWith(pool);
    for (size_t i = 0; i < serial.rows(); ++i)
        for (size_t j = 0; j < serial.cols(); ++j)
            if (check(i, j) != serial(i, j)) {
                state.SkipWithError(
                    "BEM extraction diverged from the serial "
                    "result");
                return;
            }

    for (auto _ : state) {
        Matrix m = solveWith(pool);
        benchmark::DoNotOptimize(m);
    }
}
BENCHMARK(BM_BemExtraction)->Apply(poolSizeArgs)
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace
} // namespace nanobus

BENCHMARK_MAIN();
