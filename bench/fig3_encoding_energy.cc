/**
 * @file
 * Reproduces Fig 3: total energy dissipated in 32-bit instruction
 * and data address buses for unencoded, bus-invert, odd/even
 * bus-invert, and coupling-driven bus-invert transmission, at each
 * ITRS node, split into Self / NN (nearest-neighbor coupling) /
 * All (all coupling pairs) accounting.
 *
 * The paper runs 20M instructions per benchmark; the default here is
 * scaled down (--cycles to override; --cycles=20000000 matches the
 * paper). Energies are summed over the paper's eight SPEC CPU2000
 * benchmark profiles.
 *
 * The (node x scheme x benchmark) grid is embarrassingly parallel:
 * every cell owns its simulators, so the cells are sharded across
 * the exec ThreadPool (--threads, default NANOBUS_THREADS or the
 * hardware concurrency) with each shard writing a disjoint slot —
 * the printed grid is bit-identical at any thread count.
 *
 * Paper claims to check: BI reduces self energy the most; encodings
 * help data buses, not instruction buses; OEBI/CBI are no better
 * than BI on real address streams; accounting for non-adjacent
 * coupling makes the coupling-oriented schemes look slightly worse.
 */

#include <cstdio>
#include <map>
#include <memory>

#include "bench_common.hh"
#include "exec/parallel.hh"
#include "exec/thread_pool.hh"
#include "sim/experiment.hh"
#include "trace/profile.hh"
#include "util/csv.hh"

using namespace nanobus;

namespace {

/** Energies for one (node, scheme): [bus 0=IA/1=DA][mode]. */
struct GridCell
{
    double energy[2][3] = {{0, 0, 0}, {0, 0, 0}};
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv);
    const uint64_t cycles = flags.getU64("cycles", 200000);
    const uint64_t seed = flags.getU64("seed", 1);
    std::string csv_path = flags.get("csv", "");
    std::string json_path = flags.get("json", "");
    const bool want_json = flags.has("json") || !json_path.empty();

    exec::ThreadPool pool(bench::threadsFromFlags(flags));

    bench::banner("Figure 3 (HPCA-11 2005)",
                  "Total energy in 32-bit address buses: schemes x "
                  "nodes x coupling accounting");
    std::printf("Cycles per benchmark: %llu (paper: 20M "
                "instructions); 8 SPEC profiles summed; "
                "%u thread(s)\n\n",
                static_cast<unsigned long long>(cycles),
                pool.size());

    const char *mode_names[3] = {"Self", "NN", "All"};

    bench::WallTimer run_timer;
    bench::RunMeta meta("fig3_encoding_energy", pool.size());
    const exec::ExecCounters counters_before = pool.counters();

    for (ItrsNode id : allItrsNodes()) {
        const TechnologyNode &tech = itrsNode(id);

        // One simulation per (scheme, benchmark, radius). The Self
        // component is radius-independent, so it is read from the
        // NN run. Each (scheme, benchmark) cell is one shard with a
        // disjoint result slot.
        const auto &schemes = paperSchemes();
        const auto &benchmarks = allBenchmarkNames();
        const size_t n_cells = schemes.size() * benchmarks.size();
        std::vector<EnergyCell> nn_cells(n_cells);
        std::vector<EnergyCell> all_cells(n_cells);
        std::vector<double> cell_ms(n_cells, 0.0);

        exec::parallelFor(
            pool, n_cells,
            [&](size_t begin, size_t end) {
                for (size_t task = begin; task < end; ++task) {
                    bench::WallTimer shard;
                    size_t s = task / benchmarks.size();
                    size_t b = task % benchmarks.size();
                    nn_cells[task] = runEnergyStudy(
                        benchmarks[b], tech, schemes[s], 1, cycles,
                        seed, &pool);
                    all_cells[task] = runEnergyStudy(
                        benchmarks[b], tech, schemes[s], 31, cycles,
                        seed, &pool);
                    cell_ms[task] = shard.ms();
                }
            },
            1);

        for (size_t s = 0; s < schemes.size(); ++s)
            for (size_t b = 0; b < benchmarks.size(); ++b) {
                size_t task = s * benchmarks.size() + b;
                meta.addShard(tech.name + "/" +
                                  schemeName(schemes[s]) + "/" +
                                  benchmarks[b],
                              cell_ms[task]);
            }

        std::map<EncodingScheme, GridCell> grid;
        for (size_t s = 0; s < schemes.size(); ++s) {
            GridCell &cell = grid[schemes[s]];
            for (size_t b = 0; b < benchmarks.size(); ++b) {
                size_t task = s * benchmarks.size() + b;
                const EnergyCell &nn = nn_cells[task];
                const EnergyCell &all = all_cells[task];
                cell.energy[0][0] += nn.instruction.self.raw();
                cell.energy[0][1] += nn.instruction.total().raw();
                cell.energy[0][2] +=
                    all.instruction.total().raw();
                cell.energy[1][0] += nn.data.self.raw();
                cell.energy[1][1] += nn.data.total().raw();
                cell.energy[1][2] += all.data.total().raw();
            }
        }

        std::printf("=== %s ===\n", tech.name.c_str());
        std::printf("%-4s %-5s | %13s %13s %13s %13s\n", "Bus",
                    "Mode", "BI (J)", "OEBI (J)", "CBI (J)",
                    "Unenc (J)");
        bench::rule(76);
        for (int bus = 0; bus < 2; ++bus) {
            for (int mode = 0; mode < 3; ++mode) {
                std::printf("%-4s %-5s |", bus == 0 ? "IA" : "DA",
                            mode_names[mode]);
                for (EncodingScheme scheme : paperSchemes())
                    std::printf(" %13.6e",
                                grid[scheme].energy[bus][mode]);
                std::printf("\n");
            }
        }
        std::printf("\n");

        if (!csv_path.empty()) {
            static std::unique_ptr<CsvWriter> csv;
            if (!csv) {
                csv = std::make_unique<CsvWriter>(csv_path);
                csv->header({"node", "bus", "mode", "scheme",
                             "energy_j", "threads"});
            }
            for (int bus = 0; bus < 2; ++bus)
                for (int mode = 0; mode < 3; ++mode)
                    for (EncodingScheme scheme : paperSchemes())
                        csv->row({tech.name, bus == 0 ? "IA" : "DA",
                                  mode_names[mode],
                                  schemeName(scheme),
                                  std::to_string(
                                      grid[scheme]
                                          .energy[bus][mode]),
                                  std::to_string(pool.size())});
            csv->flush();
        }
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

    std::printf("Paper observations to compare against:\n"
                " - BI gives the largest self-energy reduction, "
                "mostly on DA buses;\n"
                " - IA buses gain nothing from encoding (low Hamming "
                "distance between fetches);\n"
                " - OEBI/CBI degenerate to (worse) BI on real "
                "address streams — the coupling-\n"
                "   aware decisions buy nothing (paper: CBI could "
                "even exceed unencoded);\n"
                " - All-pair accounting raises coupling energy for "
                "every scheme.\n");
    if (!csv_path.empty())
        std::printf("CSV written to %s\n", csv_path.c_str());
    return 0;
}
