/**
 * @file
 * Reproduces Fig 4(a)-(d): interval energy dissipation and
 * average/maximum wire temperature versus time for the 130 nm data
 * and instruction address buses running the eon (integer) and swim
 * (floating-point) profiles.
 *
 * The paper simulates 300M cycles with 100K-cycle intervals and a
 * fourth-order Runge-Kutta thermal solve; the default here is scaled
 * to 30M cycles with a proportionally scaled stack time constant so
 * the ramp shape is preserved (--cycles=300000000 --stack-tau-ms=20
 * reproduces the paper's scale).
 *
 * Paper claims: DA buses dissipate more energy but IA buses
 * fluctuate more; average wire temperature saturates around 338 K
 * (~+20 K over the 318.15 K ambient).
 *
 * The two benchmark shards run under exec::Supervisor
 * (--retries=N --deadline=MS), so a transient fault retries and a
 * hung shard times out instead of wedging the figure run; the
 * supervision tallies are serialized into the BENCH_*.json.
 */

#include <array>
#include <cstdio>
#include <memory>

#include "bench_common.hh"
#include "sim/sweep.hh"
#include "exec/thread_pool.hh"
#include "sim/experiment.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "util/csv.hh"
#include "util/stats.hh"

using namespace nanobus;

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv);
    const uint64_t cycles = flags.getU64("cycles", 30000000);
    const uint64_t interval = flags.getU64("interval", 100000);
    const double stack_tau = static_cast<double>(
        flags.getU64("stack-tau-ms",
                     cycles >= 200000000 ? 20 : 2)) * 1e-3;
    const uint64_t seed = flags.getU64("seed", 1);
    const ThermalSolver solver =
        bench::thermalSolverFromFlags(flags, ThermalSolver::Rk4);
    std::string csv_path = flags.get("csv", "");
    std::string json_path = flags.get("json", "");
    const bool want_json = flags.has("json") || !json_path.empty();

    exec::ThreadPool pool(bench::threadsFromFlags(flags));

    bench::banner("Figure 4 (HPCA-11 2005)",
                  "Energy and temperature profiles, 130 nm address "
                  "buses, eon and swim");
    std::printf("Cycles: %llu, interval: %llu, stack tau: %.1f ms "
                "(paper: 300M cycles, 100K, ~20 ms ramp); "
                "solver: %s; %u thread(s)\n\n",
                static_cast<unsigned long long>(cycles),
                static_cast<unsigned long long>(interval),
                stack_tau * 1e3, thermalSolverName(solver),
                pool.size());

    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);

    std::unique_ptr<CsvWriter> csv;
    if (!csv_path.empty()) {
        csv = std::make_unique<CsvWriter>(csv_path);
        csv->header({"benchmark", "bus", "end_cycle",
                     "interval_energy_j", "avg_temp_k",
                     "max_temp_k", "threads"});
    }

    // The eon and swim simulations are independent; run them as two
    // supervised shards on the pool, each owning its
    // TwinBusSimulator, then print in fixed benchmark order so the
    // report is byte-identical at every thread count. The supervisor
    // applies --retries/--deadline and its outcome tallies land in
    // the JSON "supervisor" block (docs/ROBUSTNESS.md).
    const std::array<const char *, 2> bench_names = {"eon", "swim"};
    std::array<std::unique_ptr<TwinBusSimulator>, 2> twins;
    std::array<double, 2> shard_ms = {0.0, 0.0};

    bench::WallTimer run_timer;
    bench::RunMeta meta("fig4_thermal_profiles", pool.size());
    const exec::ExecCounters counters_before = pool.counters();

    const double deadline_ms = flags.getF64("deadline", 0.0);
    const unsigned retries =
        static_cast<unsigned>(flags.getU64("retries", 2));
    exec::Supervisor::Options sup_options;
    sup_options.max_retries = retries;
    sup_options.deadline_ms = deadline_ms;
    exec::Supervisor supervisor(pool, sup_options);

    std::vector<exec::SupervisedJob> jobs;
    for (size_t i = 0; i < bench_names.size(); ++i) {
        exec::SupervisedJob job;
        job.label = bench_names[i];
        // Every attempt rebuilds its twin from scratch — retry after
        // a transient fault replays the shard on fresh state.
        job.body = [&, i](exec::JobContext &ctx)
            -> Result<SweepReport> {
            bench::WallTimer shard;
            BusSimConfig config;
            config.data_width = 32;
            config.interval_cycles = interval;
            config.thermal.stack_mode = StackMode::Dynamic;
            config.thermal.stack_time_constant = Seconds{stack_tau};
            config.thermal.solver = solver;

            twins[i] = std::make_unique<TwinBusSimulator>(
                tech, config);
            SyntheticCpu cpu(benchmarkProfile(bench_names[i]),
                             seed, cycles);
            SweepReport report;
            report.records = twins[i]->run(cpu, pool);
            report.completed = ctx.pulse();
            shard_ms[i] = shard.ms();
            return report;
        };
        jobs.push_back(std::move(job));
    }
    const exec::SupervisedReport sup = supervisor.run(jobs);
    bench::SupervisorSummary summary;
    summary.enabled = true;
    summary.ok = sup.ok_count;
    summary.retried = sup.retried_count;
    summary.timed_out = sup.timed_out_count;
    summary.quarantined = sup.quarantined_count;
    summary.max_retries = retries;
    summary.deadline_ms = deadline_ms;
    meta.setSupervisor(summary);
    if (!sup.allSucceeded()) {
        for (size_t i = 0; i < jobs.size(); ++i)
            std::fprintf(stderr, "fig4: shard %s ended %s (%s)\n",
                         jobs[i].label.c_str(),
                         exec::jobOutcomeName(
                             sup.records[i].outcome),
                         sup.records[i].error.describe().c_str());
        return 1;
    }

    for (size_t b = 0; b < bench_names.size(); ++b) {
        const char *bench_name = bench_names[b];
        TwinBusSimulator &twin = *twins[b];
        meta.addShard(bench_name, shard_ms[b]);

        for (const char *bus_name : {"DA", "IA"}) {
            const BusSimulator &bus = bus_name[0] == 'D'
                ? twin.dataBus() : twin.instructionBus();
            const auto &samples = bus.samples();

            RunningStats energy, avg_t, max_t;
            for (const auto &s : samples) {
                energy.add(s.energy.total().raw());
                avg_t.add(s.avg_temperature.raw());
                max_t.add(s.max_temperature.raw());
            }

            std::printf("--- %s, %s bus: %zu intervals ---\n",
                        bench_name, bus_name, samples.size());
            std::printf("  transmissions          : %llu\n",
                        static_cast<unsigned long long>(
                            bus.transmissions()));
            std::printf("  total energy           : %.6e J "
                        "(self %.3e, coupling %.3e)\n",
                        bus.totalEnergy().total().raw(),
                        bus.totalEnergy().self.raw(),
                        bus.totalEnergy().coupling.raw());
            std::printf("  interval energy        : mean %.4e J, "
                        "stddev %.4e J (fluctuation %.1f%%)\n",
                        energy.mean(), energy.stddev(),
                        energy.mean() > 0.0
                            ? 100.0 * energy.stddev() / energy.mean()
                            : 0.0);
            std::printf("  avg temperature        : start %.2f K, "
                        "end %.2f K, max %.2f K\n",
                        samples.empty()
                            ? 0.0
                            : samples.front().avg_temperature.raw(),
                        samples.empty()
                            ? 0.0
                            : samples.back().avg_temperature.raw(),
                        avg_t.max());
            std::printf("  max (hottest wire)     : %.2f K "
                        "(+%.2f K over ambient)\n\n", max_t.max(),
                        max_t.max() - 318.15);

            if (csv) {
                for (const auto &s : samples) {
                    csv->beginRow();
                    csv->cell(std::string(bench_name));
                    csv->cell(std::string(bus_name));
                    csv->cell(s.end_cycle);
                    csv->cell(s.energy.total());
                    csv->cell(s.avg_temperature);
                    csv->cell(s.max_temperature);
                    csv->cell(static_cast<uint64_t>(pool.size()));
                    csv->endRow();
                }
            }
        }

        // Fig 4 shape checks printed inline.
        double da_energy =
            twin.dataBus().totalEnergy().total().raw();
        double ia_energy =
            twin.instructionBus().totalEnergy().total().raw();
        double da_per_tx = da_energy /
            static_cast<double>(twin.dataBus().transmissions());
        double ia_per_tx = ia_energy /
            static_cast<double>(
                twin.instructionBus().transmissions());
        std::printf("  [check] DA energy/transmission %.3e J vs IA "
                    "%.3e J (paper: DA higher)\n",
                    da_per_tx, ia_per_tx);
        std::printf("  [check] saturation: avg temp end %.2f K "
                    "(paper: ~338 K)\n",
                    twin.instructionBus()
                        .thermalNetwork()
                        .averageTemperature().raw());

        auto fluctuation = [](const BusSimulator &bus) {
            RunningStats s;
            for (const auto &sample : bus.samples())
                s.add(sample.energy.total().raw());
            return s.mean() > 0.0 ? s.stddev() / s.mean() : 0.0;
        };
        std::printf("  [check] interval-energy fluctuation: IA "
                    "%.1f%% vs DA %.1f%% (paper Fig 4: IA\n"
                    "          fluctuates more for the integer "
                    "benchmark eon)\n",
                    100.0 * fluctuation(twin.instructionBus()),
                    100.0 * fluctuation(twin.dataBus()));
        // Sec 5.3.1: fluctuating current loads the supply network
        // inductively.
        std::printf("  [check] supply-noise proxy max |dI/dt|: IA "
                    "%.3e A/s vs DA %.3e A/s\n\n",
                    twin.instructionBus().didtStats().max(),
                    twin.dataBus().didtStats().max());
    }

    meta.setCounters(pool.counters() - counters_before);
    meta.printSummary(run_timer.ms());
    if (want_json) {
        std::string written = meta.writeJson(run_timer.ms(),
                                             json_path);
        if (!written.empty())
            std::printf("Shard timing JSON written to %s\n",
                        written.c_str());
    }
    if (csv)
        std::printf("CSV written to %s\n", csv_path.c_str());
    return 0;
}
