/**
 * @file
 * Trace toolkit: generate, convert, and characterize address traces
 * from the command line — the workflow the paper performs with SHADE
 * (collect), custom scripts (filter), and its model (analyze).
 *
 * Usage:
 *   trace_toolkit gen <benchmark> <cycles> <out> [seed]
 *   trace_toolkit convert <in> <out>
 *   trace_toolkit stats <in>
 *
 * Every file is in the text trace format (trace/io.hh).
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "trace/io.hh"
#include "trace/profile.hh"
#include "trace/synthetic.hh"
#include "trace/trace_stats.hh"
#include "util/logging.hh"

using namespace nanobus;

namespace {

void
writeAll(TraceSource &source, const std::string &path)
{
    TraceRecord r;
    uint64_t count = 0;
    TraceWriter writer(path);
    writer.comment("nanobus trace");
    while (source.next(r)) {
        writer.write(r);
        ++count;
    }
    writer.flush();
    std::printf("wrote %llu records to %s\n",
                static_cast<unsigned long long>(count), path.c_str());
}

int
cmdGen(int argc, char **argv)
{
    if (argc < 5)
        fatal("usage: trace_toolkit gen <benchmark> <cycles> <out> "
              "[seed]");
    std::string bench = argv[2];
    uint64_t cycles = std::strtoull(argv[3], nullptr, 10);
    std::string out = argv[4];
    uint64_t seed = argc > 5 ? std::strtoull(argv[5], nullptr, 10)
                             : 1;
    SyntheticCpu cpu(benchmarkProfile(bench), seed, cycles);
    writeAll(cpu, out);
    return 0;
}

int
cmdConvert(int argc, char **argv)
{
    if (argc < 4)
        fatal("usage: trace_toolkit convert <in> <out>");
    TraceReader in(argv[2]);
    writeAll(in, argv[3]);
    return 0;
}

int
cmdStats(int argc, char **argv)
{
    if (argc < 3)
        fatal("usage: trace_toolkit stats <in>");
    TraceReader in(argv[2]);
    TraceStatistics stats;
    stats.consume(in);

    std::printf("trace: %s\n", argv[2]);
    std::printf("  cycles (last seen)   : %llu\n",
                static_cast<unsigned long long>(stats.lastCycle()));
    std::printf("  instruction fetches  : %llu (mean Hamming %.3f, "
                "max %.0f)\n",
                static_cast<unsigned long long>(
                    stats.instruction().transactions),
                stats.instruction().hamming.mean(),
                stats.instruction().hamming.max());
    std::printf("  loads / stores       : %llu / %llu "
                "(mean Hamming %.3f)\n",
                static_cast<unsigned long long>(stats.loads()),
                static_cast<unsigned long long>(stats.stores()),
                stats.data().hamming.mean());
    std::printf("  data bus idle        : %.1f%%\n",
                100.0 * stats.dataIdleFraction());

    std::printf("  IA bit activity      :");
    for (unsigned bit = 0; bit < 32; bit += 4)
        std::printf(" b%u=%.3f", bit,
                    stats.instruction().bitActivity(bit));
    std::printf("\n  DA bit activity      :");
    for (unsigned bit = 0; bit < 32; bit += 4)
        std::printf(" b%u=%.3f", bit,
                    stats.data().bitActivity(bit));
    std::printf("\n");
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        fatal("usage: trace_toolkit <gen|convert|stats> ...");
    std::string cmd = argv[1];
    if (cmd == "gen")
        return cmdGen(argc, argv);
    if (cmd == "convert")
        return cmdConvert(argc, argv);
    if (cmd == "stats")
        return cmdStats(argc, argv);
    fatal("unknown command '%s'", cmd.c_str());
}
