/**
 * @file
 * nanobus_e2e — the end-to-end benchmark program.
 *
 *   nanobus_e2e --workload=NAME|all [--seed=S] [--threads=N]
 *               [--reps=N] [--seconds=S] [--json=PATH]
 *               [--reference=PATH] [--traced] [--smoke]
 *               [--tmpdir=DIR]
 *   nanobus_e2e --workload=NAME|all --write-reference=PATH [...]
 *
 * One closed-loop client runs reps back to back (setup, then the run)
 * until at least --reps reps and --seconds of measurement are done,
 * then prints every metric as `name value unit`, checks every rep
 * against the expected simulated counts and the oracle, and writes
 * the full result (medians, quartiles, samples) to --json. The exit
 * status is 0 only when every check passed; 2 on a usage error.
 *
 * The oracle is, in order: the reference.txt entry for (workload,
 * scale, seed); an in-process Scalar+RK4 run when the library
 * defaults differ from it; else the first rep itself, since with
 * oracle defaults the run *is* the oracle computation.
 */

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <system_error>

#include "bench_common.hh"
#include "e2e.hh"
#include "replay.hh"
#include "trace/batch.hh"
#include "util/atomicfile.hh"

using namespace nanobus;
using namespace nanobus::e2e;

namespace {

constexpr double kEnergyLimit = 1e-9;
constexpr double kTempLimitK = 0.05;

struct Options
{
    std::vector<std::string> workloads;
    uint64_t seed = 1;
    unsigned threads = 4;
    uint64_t min_reps = 5;
    double seconds = 0.0;
    bool traced = false;
    Scale scale = Scale::Full;
    std::string json_path;
    std::string reference_path;
    std::string write_reference;
    std::string tmp_dir;
};

/** Median and quartiles exactly as Python's statistics.median and
 *  statistics.quantiles(n=4) (exclusive method) compute them. */
struct Summary
{
    double median = 0.0;
    double q1 = 0.0;
    double q3 = 0.0;
    std::vector<double> samples;
};

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.samples = samples;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    if (n == 0)
        return s;
    s.median = n % 2 ? samples[n / 2]
                     : (samples[n / 2 - 1] + samples[n / 2]) / 2.0;
    if (n == 1) {
        s.q1 = s.q3 = samples[0];
        return s;
    }
    const auto quartile = [&](size_t i) {
        const size_t m = n + 1;
        size_t j = i * m / 4;
        j = std::clamp<size_t>(j, 1, n - 1);
        const double delta = static_cast<double>(i * m) -
            static_cast<double>(j * 4);
        return (samples[j - 1] * (4.0 - delta) + samples[j] * delta) /
            4.0;
    };
    s.q1 = quartile(1);
    s.q3 = quartile(3);
    return s;
}

/** Linear-interpolated percentile (p in [0, 1]). */
double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double
cpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto tv = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
            static_cast<double>(t.tv_usec) * 1e-6;
    };
    return tv(usage.ru_utime) + tv(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

/** Ordered metric table: printed as `name value unit` and rendered
 *  into the result JSON. */
class Metrics
{
  public:
    void add(const std::string &name, double value, const char *unit)
    {
        Summary s;
        s.median = s.q1 = s.q3 = value;
        s.samples = {value};
        add(name, s, unit);
    }

    void add(const std::string &name, const Summary &s,
             const char *unit)
    {
        rows_.push_back({name, s, unit});
        std::printf("%s %.9g %s\n", name.c_str(), s.median, unit);
    }

    std::string json(const std::string &indent) const
    {
        std::string out = "{";
        for (size_t i = 0; i < rows_.size(); ++i) {
            const Row &r = rows_[i];
            out += (i ? ",\n" : "\n") + indent + "  " + jsonString(r.name) +
                ": {\"value\": " + num(r.summary.median) +
                ", \"unit\": " + jsonString(r.unit) +
                ", \"q1\": " + num(r.summary.q1) +
                ", \"q3\": " + num(r.summary.q3) +
                ", \"n\": " + std::to_string(r.summary.samples.size()) +
                ", \"samples\": [";
            for (size_t k = 0; k < r.summary.samples.size(); ++k)
                out += (k ? ", " : "") + num(r.summary.samples[k]);
            out += "]}";
        }
        return out + "\n" + indent + "}";
    }

  private:
    struct Row
    {
        std::string name;
        Summary summary;
        std::string unit;
    };
    std::vector<Row> rows_;
};

/** Accumulated verdict over every rep of one workload. */
struct Verdict
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
    double energy_rel_err = 0.0;
    double temp_err_k = 0.0;
    std::vector<std::string> errors;

    void note(std::string error)
    {
        if (errors.size() < 20)
            errors.push_back(std::move(error));
    }
};

/** FNV-1a over every cell's label, counts and value bits: equal
 *  digests mean bit-identical results (check_e2e.py --compare). */
std::string
resultDigest(const std::vector<Cell> &cells)
{
    uint64_t h = 0xcbf29ce484222325ull;
    const auto mix = [&h](const void *data, size_t size) {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (size_t i = 0; i < size; ++i)
            h = (h ^ bytes[i]) * 0x100000001b3ull;
    };
    for (const Cell &c : cells) {
        mix(c.label.data(), c.label.size());
        for (uint64_t v : {c.count, c.intervals})
            mix(&v, sizeof(v));
        for (double v : {c.self, c.coupling, c.avg_temp, c.max_temp})
            mix(&v, sizeof(v));
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

bool
sameBits(const Cell &a, const Cell &b)
{
    return a.label == b.label && a.count == b.count &&
        a.intervals == b.intervals && a.self == b.self &&
        a.coupling == b.coupling && a.avg_temp == b.avg_temp &&
        a.max_temp == b.max_temp;
}

/**
 * Check one rep: op errors, workload and per-cell counts against the
 * prep expectation, bit-identity with the first rep, and accuracy
 * against the oracle cells (when given). Each failing op counts once.
 */
void
checkRep(const RunResult &rep, const Expected &expected,
         const std::vector<Cell> *oracle, const RunResult *first,
         Verdict &verdict)
{
    std::vector<bool> op_failed(expected.ops, false);
    const auto fail = [&](unsigned op, std::string why) {
        if (op < op_failed.size() && !op_failed[op]) {
            op_failed[op] = true;
            verdict.note(std::move(why));
        }
    };

    for (unsigned op = 0; op < rep.op_errors.size(); ++op)
        if (!rep.op_errors[op].empty())
            fail(op, "op " + std::to_string(op) + ": " +
                         rep.op_errors[op]);
    for (const auto &[key, value] : expected.counts) {
        const auto it = rep.counts.find(key);
        if (it == rep.counts.end() || it->second != value)
            for (unsigned op = 0; op < expected.ops; ++op)
                fail(op, "count " + key + " " +
                             std::to_string(it == rep.counts.end()
                                                ? 0
                                                : it->second) +
                             " vs expected " + std::to_string(value));
    }
    if (rep.cells.size() != expected.cells.size()) {
        for (unsigned op = 0; op < expected.ops; ++op)
            fail(op, "cell count " + std::to_string(rep.cells.size()) +
                         " vs " +
                         std::to_string(expected.cells.size()));
        return;
    }
    for (size_t i = 0; i < rep.cells.size(); ++i) {
        const Cell &c = rep.cells[i];
        const Cell &e = expected.cells[i];
        if (c.label != e.label || c.count != e.count ||
            c.intervals != e.intervals)
            fail(c.op, c.label + ": count " + std::to_string(c.count) +
                           "/" + std::to_string(c.intervals) +
                           " intervals vs expected " +
                           std::to_string(e.count) + "/" +
                           std::to_string(e.intervals));
        if (first && !sameBits(c, first->cells[i]))
            fail(c.op, c.label + ": differs from the first rep");
        if (oracle && i < oracle->size()) {
            const Cell &o = (*oracle)[i];
            const double de = energyDeviation(c, o);
            const double dt = temperatureDeviation(c, o);
            verdict.energy_rel_err =
                std::max(verdict.energy_rel_err, de);
            verdict.temp_err_k = std::max(verdict.temp_err_k, dt);
            if (o.label != c.label || o.count != c.count ||
                o.intervals != c.intervals)
                fail(c.op, c.label + ": counts differ from the oracle");
            if (!(de <= kEnergyLimit) || !(dt <= kTempLimitK))
                fail(c.op, c.label + ": energy deviation " + num(de) +
                               ", temperature deviation " + num(dt) +
                               " K vs the oracle");
        }
    }
    if (oracle && oracle->size() != rep.cells.size())
        for (unsigned op = 0; op < expected.ops; ++op)
            fail(op, "oracle has " + std::to_string(oracle->size()) +
                         " cells");
    verdict.attempted += expected.ops;
    verdict.failed += static_cast<uint64_t>(
        std::count(op_failed.begin(), op_failed.end(), true));
}

/** One workload's rendered result. */
struct Outcome
{
    std::string json;
    bool correct = false;
};

std::string
countsJson(const std::map<std::string, uint64_t> &counts)
{
    std::string out = "{";
    bool first = true;
    for (const auto &[key, value] : counts) {
        out += (first ? "" : ", ") + jsonString(key) + ": " +
            std::to_string(value);
        first = false;
    }
    return out + "}";
}

Outcome
runWorkload(const Options &opt, const std::string &name,
            const std::vector<ReferenceEntry> &reference)
{
    Outcome outcome;
    std::unique_ptr<Workload> workload =
        makeWorkload(name, opt.seed, opt.scale, opt.tmp_dir);
    std::printf("# workload %s seed %llu scale %s threads %u%s\n",
                name.c_str(), static_cast<unsigned long long>(opt.seed),
                scaleName(opt.scale), opt.threads,
                opt.traced ? " traced" : "");

    Verdict verdict;
    bench::WallTimer prep_timer;
    {
        exec::ThreadPool prep_pool(opt.threads);
        const Status prepared = workload->prepare(prep_pool);
        if (!prepared.ok()) {
            verdict.note("prepare: " + prepared.error().describe());
            ++verdict.failed;
        }
    }
    const double prep_s = prep_timer.ms() * 1e-3;
    std::printf("prep_s %.9g s\n", prep_s);
    const Expected &expected = workload->expected();

    if (!opt.write_reference.empty()) {
        std::unique_ptr<Instance> oracle =
            workload->setup(opt.threads, true);
        oracle->run();
        const RunResult result = oracle->collect();
        checkRep(result, expected, nullptr, nullptr, verdict);
        if (verdict.failed == 0) {
            ReferenceEntry entry{name, scaleName(opt.scale), opt.seed,
                                 result.counts, result.cells};
            const Status stored =
                storeReference(opt.write_reference, entry);
            if (!stored.ok())
                verdict.note("write reference: " +
                             stored.error().describe());
        }
        for (const std::string &e : verdict.errors)
            std::fprintf(stderr, "nanobus_e2e: %s\n", e.c_str());
        outcome.correct = verdict.errors.empty();
        return outcome;
    }

    // Measured reps. The traced run makes two: the first warms the
    // heap and caches as the untraced reps are warmed by their
    // predecessors, and the second is the traced call.
    std::vector<RunResult> reps;
    std::vector<double> setup_s, run_s, cpu_s, words_per_s;
    exec::ExecCounters exec_delta;
    std::unique_ptr<Instance> traced_instance;
    bench::WallTimer loop_timer;
    const uint64_t min_reps = opt.traced ? 2 : opt.min_reps;
    while (reps.size() < min_reps ||
           (!opt.traced && loop_timer.ms() * 1e-3 < opt.seconds)) {
        bench::WallTimer setup_timer;
        std::unique_ptr<Instance> instance =
            workload->setup(opt.threads, false);
        setup_s.push_back(setup_timer.ms() * 1e-3);
        const exec::ExecCounters before = instance->pool().counters();
        const double cpu_before = cpuSeconds();
        bench::WallTimer run_timer;
        instance->run();
        const double elapsed = run_timer.ms() * 1e-3;
        cpu_s.push_back(cpuSeconds() - cpu_before);
        exec_delta = instance->pool().counters() - before;
        run_s.push_back(elapsed);
        words_per_s.push_back(static_cast<double>(expected.words) /
                              elapsed);
        reps.push_back(instance->collect());
        if (opt.traced)
            traced_instance = std::move(instance);
    }
    const double rss_mb = peakRssMb();

    // Pick the oracle and check every rep.
    std::string oracle_kind = "self";
    std::vector<Cell> oracle_cells = reps.front().cells;
    for (const ReferenceEntry &entry : reference) {
        if (entry.workload == name && entry.seed == opt.seed &&
            entry.scale == scaleName(opt.scale)) {
            oracle_kind = "reference";
            oracle_cells = entry.cells;
            if (entry.counts != reps.front().counts)
                verdict.note("counts differ from the reference");
        }
    }
    if (oracle_kind == "self" && !defaultsAreOracle()) {
        oracle_kind = "in-process";
        std::unique_ptr<Instance> oracle =
            workload->setup(opt.threads, true);
        oracle->run();
        RunResult result = oracle->collect();
        Verdict oracle_verdict;
        checkRep(result, expected, nullptr, nullptr, oracle_verdict);
        for (const std::string &e : oracle_verdict.errors)
            verdict.note("oracle: " + e);
        oracle_cells = std::move(result.cells);
    }
    for (const RunResult &rep : reps)
        checkRep(rep, expected, &oracle_cells, &reps.front(), verdict);

    std::string layers_json;
    if (opt.traced) {
        LayerStats stats;
        workload->replay(*traced_instance, stats);
        verdict.attempted += stats.replays;
        verdict.failed += stats.failed_replays;
        for (const std::string &m : stats.mismatches)
            verdict.note("replay " + m);

        const double run = run_s.back();
        const double cpu = cpu_s.back();
        const auto per = [](double total, uint64_t count) {
            return count ? total / static_cast<double>(count) : 0.0;
        };
        const std::vector<double> &ops = reps.back().op_seconds;
        Metrics m;
        m.add("traced.run_s", run, "s");
        m.add("trace.records", static_cast<double>(stats.records),
              "count");
        m.add("trace.bytes", static_cast<double>(stats.trace_bytes),
              "B");
        m.add("trace.busy_s", stats.trace_s, "s");
        m.add("trace.ns_per_record",
              per(stats.trace_s * 1e9, stats.records), "ns");
        m.add("route.busy_s", stats.route_s, "s");
        m.add("encoding.words",
              static_cast<double>(stats.encoded_words), "count");
        m.add("encoding.busy_s", stats.encode_s, "s");
        m.add("encoding.ns_per_word",
              per(stats.encode_s * 1e9, stats.encoded_words), "ns");
        m.add("energy.words", static_cast<double>(stats.energy_words),
              "count");
        m.add("energy.busy_s", stats.energy_s, "s");
        m.add("energy.ns_per_word",
              per(stats.energy_s * 1e9, stats.energy_words), "ns");
        m.add("energy.mean_batch_words",
              per(static_cast<double>(stats.energy_words),
                  stats.energy_calls),
              "words");
        m.add("thermal.networks", static_cast<double>(stats.networks),
              "count");
        m.add("thermal.intervals", static_cast<double>(stats.intervals),
              "count");
        m.add("thermal.busy_s", stats.thermal_s, "s");
        m.add("thermal.faults", static_cast<double>(stats.faults),
              "count");
        m.add("sim.checkpoint_writes",
              static_cast<double>(stats.checkpoint_writes), "count");
        m.add("sim.checkpoint_bytes",
              static_cast<double>(stats.checkpoint_bytes), "B");
        m.add("sim.checkpoint_mb_per_s",
              stats.checkpoint_s > 0.0
                  ? static_cast<double>(stats.checkpoint_bytes) * 1e-6 /
                        stats.checkpoint_s
                  : 0.0,
              "MB/s");
        m.add("sim.job_s_p50", percentile(ops, 0.50), "s");
        m.add("sim.job_s_p98", percentile(ops, 0.98), "s");
        m.add("sim.residual_cpu_s", cpu - stats.busySeconds(), "s");
        const auto epochs = reps.front().counts.find("epochs");
        m.add("fabric.epochs",
              epochs == reps.front().counts.end()
                  ? 0.0
                  : static_cast<double>(epochs->second),
              "count");
        m.add("fabric.words_per_segment_epoch",
              per(static_cast<double>(stats.energy_words),
                  stats.segment_epochs),
              "words");
        m.add("exec.tasks", static_cast<double>(exec_delta.tasks_run),
              "count");
        m.add("exec.steals", static_cast<double>(exec_delta.steals),
              "count");
        m.add("exec.parallel_eff", cpu / (run * opt.threads), "1");
        layers_json = m.json("    ");
        std::printf("# end-to-end metrics of the traced call\n");
    }
    Metrics metrics;
    metrics.add("setup_s", summarize(setup_s), "s");
    metrics.add("run_s", summarize(run_s), "s");
    metrics.add("words_per_s", summarize(words_per_s), "words/s");
    metrics.add("cpu_s", summarize(cpu_s), "s");
    metrics.add("peak_rss_mb", rss_mb, "MB");
    const double failed_frac = verdict.attempted
        ? static_cast<double>(verdict.failed) /
            static_cast<double>(verdict.attempted)
        : 1.0;
    metrics.add("energy_rel_err", verdict.energy_rel_err, "1");
    metrics.add("temp_err_k", verdict.temp_err_k, "K");
    metrics.add("failed_frac", failed_frac, "1");
    for (const std::string &e : verdict.errors)
        std::fprintf(stderr, "nanobus_e2e: %s: %s\n", name.c_str(),
                     e.c_str());

    outcome.correct = verdict.failed == 0 && verdict.errors.empty() &&
        verdict.attempted > 0;
    std::string json = "  {\n    \"workload\": " + jsonString(name) +
        ",\n    \"seed\": " + std::to_string(opt.seed) +
        ",\n    \"scale\": " + jsonString(scaleName(opt.scale)) +
        ",\n    \"threads\": " + std::to_string(opt.threads) +
        ",\n    \"traced\": " + (opt.traced ? "true" : "false") +
        ",\n    \"kernel\": " + jsonString(defaultKernelName()) +
        ",\n    \"solver\": " + jsonString(defaultSolverName()) +
        ",\n    \"batch_size\": " +
        std::to_string(kDefaultTraceBatchSize) +
        ",\n    \"oracle\": " + jsonString(oracle_kind) +
        ",\n    \"reps\": " + std::to_string(reps.size()) +
        ",\n    \"prep_s\": " + num(prep_s) +
        ",\n    \"words\": " + std::to_string(expected.words) +
        ",\n    \"expected_counts\": " + countsJson(expected.counts) +
        ",\n    \"observed_counts\": " +
        countsJson(reps.front().counts) +
        ",\n    \"result_digest\": " +
        jsonString(resultDigest(reps.front().cells)) +
        ",\n    \"attempted\": " + std::to_string(verdict.attempted) +
        ",\n    \"failed\": " + std::to_string(verdict.failed) +
        ",\n    \"correct\": " + (outcome.correct ? "true" : "false") +
        ",\n    \"errors\": [";
    for (size_t i = 0; i < verdict.errors.size(); ++i)
        json += (i ? ", " : "") + jsonString(verdict.errors[i]);
    json += "],\n    \"metrics\": " + metrics.json("    ");
    if (opt.traced)
        json += ",\n    \"layers\": " + layers_json;
    json += "\n  }";
    outcome.json = std::move(json);
    return outcome;
}

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "nanobus_e2e: %s\n"
                 "usage: nanobus_e2e --workload=NAME|all [--seed=S] "
                 "[--threads=N] [--reps=N] [--seconds=S] [--json=PATH] "
                 "[--reference=PATH] [--traced] [--smoke] "
                 "[--tmpdir=DIR] [--write-reference=PATH]\n",
                 why);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv);
    Options opt;
    const std::string workload = flags.get("workload", "");
    if (workload.empty())
        return usage("--workload is required");
    if (workload == "all")
        opt.workloads = workloadNames();
    else if (std::find(workloadNames().begin(), workloadNames().end(),
                       workload) != workloadNames().end())
        opt.workloads = {workload};
    else
        return usage(("unknown workload " + workload).c_str());
    opt.seed = flags.getU64("seed", 1);
    opt.threads = static_cast<unsigned>(flags.getU64("threads", 4));
    opt.min_reps = flags.getU64("reps", 5);
    opt.seconds = flags.getF64("seconds", 0.0);
    opt.traced = flags.has("traced");
    opt.scale = flags.has("smoke") ? Scale::Smoke : Scale::Full;
    opt.json_path = flags.get("json", "");
    opt.reference_path = flags.get("reference", "");
    opt.write_reference = flags.get("write-reference", "");
    if (opt.threads < 1 || opt.min_reps < 1)
        return usage("--threads and --reps must be positive");

    std::vector<ReferenceEntry> reference;
    if (!opt.reference_path.empty()) {
        Result<std::vector<ReferenceEntry>> loaded =
            loadReference(opt.reference_path);
        if (!loaded.ok())
            return usage(loaded.error().describe().c_str());
        reference = loaded.takeValue();
    }

    // Trace files and checkpoints live in a private directory under
    // --tmpdir, removed before exit.
    std::error_code ec;
    const std::filesystem::path tmp =
        std::filesystem::path(flags.get("tmpdir", ".")) /
        ("nanobus_e2e." + std::to_string(getpid()));
    std::filesystem::create_directories(tmp, ec);
    if (ec)
        return usage(("cannot create " + tmp.string()).c_str());
    opt.tmp_dir = tmp.string();

    bool correct = true;
    std::string json = "{\n  \"schema\": \"nanobus-e2e-result/1\",\n"
                       "  \"results\": [\n";
    for (size_t i = 0; i < opt.workloads.size(); ++i) {
        const Outcome outcome =
            runWorkload(opt, opt.workloads[i], reference);
        correct = correct && outcome.correct;
        json += outcome.json +
            (i + 1 < opt.workloads.size() ? ",\n" : "\n");
    }
    json += "  ]\n}\n";
    std::filesystem::remove_all(tmp, ec);

    if (!opt.json_path.empty() && opt.write_reference.empty()) {
        const Status written = writeFileAtomic(opt.json_path, json);
        if (!written.ok()) {
            std::fprintf(stderr, "nanobus_e2e: %s\n",
                         written.error().describe().c_str());
            return 1;
        }
    }
    std::printf("correct %s\n", correct ? "true" : "false");
    return correct ? 0 : 1;
}
