/**
 * @file
 * Compare low-power encoding schemes on a SPEC-like workload of your
 * choice — the scenario the paper's Sec 5.2 motivates: should you
 * spend two extra bus lines on odd/even bus-invert for an address
 * bus?
 *
 * Usage:
 *   encoding_explorer [benchmark] [node] [cycles]
 *   e.g. encoding_explorer mcf 45nm 500000
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "encoding/encoder.hh"
#include "sim/experiment.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "trace/trace_stats.hh"
#include "util/logging.hh"

using namespace nanobus;

namespace {

ItrsNode
parseNode(const std::string &name)
{
    for (ItrsNode id : allItrsNodes())
        if (name == itrsNodeName(id))
            return id;
    fatal("unknown node '%s' (use 130nm/90nm/65nm/45nm)",
          name.c_str());
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::string bench = argc > 1 ? argv[1] : "eon";
    ItrsNode node_id = parseNode(argc > 2 ? argv[2] : "130nm");
    uint64_t cycles = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                               : 200000;
    const TechnologyNode &tech = itrsNode(node_id);

    // First characterize the address streams themselves.
    SyntheticCpu cpu(benchmarkProfile(bench), 1, cycles);
    TraceStatistics stats;
    stats.consume(cpu);
    std::printf("Workload %s at %s, %llu cycles:\n", bench.c_str(),
                tech.name.c_str(),
                static_cast<unsigned long long>(cycles));
    std::printf("  IA transactions %llu (mean Hamming %.2f), "
                "DA transactions %llu (mean Hamming %.2f)\n",
                static_cast<unsigned long long>(
                    stats.instruction().transactions),
                stats.instruction().hamming.mean(),
                static_cast<unsigned long long>(
                    stats.data().transactions),
                stats.data().hamming.mean());
    std::printf("  data bus idle fraction: %.1f%%\n\n",
                100.0 * stats.dataIdleFraction());

    // Now the energy comparison, all coupling pairs accounted.
    std::printf("%-28s %6s | %13s %13s | %13s\n", "Scheme", "lines",
                "IA energy (J)", "DA energy (J)", "total (J)");
    for (int i = 0; i < 84; ++i)
        std::putchar('-');
    std::putchar('\n');

    double unencoded_total = 0.0;
    for (EncodingScheme scheme :
         {EncodingScheme::Unencoded, EncodingScheme::BusInvert,
          EncodingScheme::OddEvenBusInvert,
          EncodingScheme::CouplingDrivenBusInvert}) {
        EnergyCell cell = runEnergyStudy(bench, tech, scheme, 31,
                                         cycles);
        double total =
            (cell.instruction.total() + cell.data.total()).raw();
        if (scheme == EncodingScheme::Unencoded)
            unencoded_total = total;
        auto encoder = makeEncoder(scheme, 32);
        std::printf("%-28s %6u | %13.5e %13.5e | %13.5e (%+.1f%%)\n",
                    schemeName(scheme), encoder->busWidth(),
                    cell.instruction.total().raw(),
                    cell.data.total().raw(), total,
                    100.0 * (total - unencoded_total) /
                        unencoded_total);
    }

    std::printf("\nNegative %% = saves energy vs unencoded. The "
                "paper's finding: on real address\nstreams the "
                "bus-invert family offers little or nothing.\n");
    return 0;
}
