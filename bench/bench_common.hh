/**
 * @file
 * Shared helpers for the reproduction bench binaries: tiny flag
 * parser, fixed-width table printing, and the shard-timing report
 * every parallel driver serializes to BENCH_<name>.json so the
 * scaling trajectory (threads vs per-shard wall-clock) is captured
 * run over run.
 */

#ifndef NANOBUS_BENCH_BENCH_COMMON_HH
#define NANOBUS_BENCH_BENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "exec/stats.hh"
#include "exec/thread_pool.hh"
#include "thermal/network.hh"
#include "util/atomicfile.hh"
#include "util/result.hh"

namespace nanobus {
namespace bench {

/** Minimal `--key=value` / `--flag` command-line parser. */
class Flags
{
  public:
    Flags(int argc, char **argv)
    {
        for (int i = 1; i < argc; ++i)
            args_.emplace_back(argv[i]);
    }

    /** Value of --key=..., or fallback. */
    std::string
    get(const std::string &key, const std::string &fallback) const
    {
        std::string prefix = "--" + key + "=";
        for (const auto &arg : args_) {
            if (arg.rfind(prefix, 0) == 0)
                return arg.substr(prefix.size());
        }
        return fallback;
    }

    /** Integer value of --key=..., or fallback. */
    uint64_t
    getU64(const std::string &key, uint64_t fallback) const
    {
        std::string v = get(key, "");
        return v.empty() ? fallback : std::strtoull(v.c_str(),
                                                    nullptr, 10);
    }

    /** Floating-point value of --key=..., or fallback. */
    double
    getF64(const std::string &key, double fallback) const
    {
        std::string v = get(key, "");
        return v.empty() ? fallback : std::strtod(v.c_str(), nullptr);
    }

    /** Presence of a bare --flag. */
    bool
    has(const std::string &key) const
    {
        std::string flag = "--" + key;
        for (const auto &arg : args_)
            if (arg == flag)
                return true;
        return false;
    }

  private:
    std::vector<std::string> args_;
};

/**
 * Pool size from `--threads=N`, the one execution knob every
 * parallel bench driver shares (default: ThreadPool::defaultThreads,
 * i.e. NANOBUS_THREADS, then the hardware concurrency).
 */
inline unsigned
threadsFromFlags(const Flags &flags)
{
    return static_cast<unsigned>(
        flags.getU64("threads", exec::ThreadPool::defaultThreads()));
}

/** Steady-clock stopwatch for shard and batch wall time. */
class WallTimer
{
  public:
    WallTimer() : start_(std::chrono::steady_clock::now()) {}

    /** Milliseconds since construction (or the last restart). */
    double ms() const
    {
        return std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start_)
            .count();
    }

    void restart() { start_ = std::chrono::steady_clock::now(); }

  private:
    std::chrono::steady_clock::time_point start_;
};

/**
 * Supervision outcome of one bench run, serialized into the
 * BENCH_*.json "supervisor" block. Plain counters on purpose: this
 * header stays independent of exec/supervisor.hh, so benches without
 * a supervised path don't pull the sim stack in. Drivers that run
 * under an exec::Supervisor copy the SupervisedReport tallies over.
 */
struct SupervisorSummary
{
    bool enabled = false;
    size_t ok = 0;
    size_t retried = 0;
    size_t timed_out = 0;
    size_t quarantined = 0;
    unsigned max_retries = 0;
    double deadline_ms = 0.0;
};

/**
 * Per-shard wall-clock report of one bench run. Shards are added in
 * a deterministic order after the parallel region drains (each
 * worker records into its own slot); writeJson emits the machine-
 * readable scaling record next to the figure's CSV.
 */
class RunMeta
{
  public:
    RunMeta(std::string bench_name, unsigned threads)
        : name_(std::move(bench_name)), threads_(threads)
    {
    }

    /** Record one shard's wall time [ms]. */
    void addShard(std::string label, double wall_ms)
    {
        labels_.push_back(std::move(label));
        wall_ms_.push_back(wall_ms);
    }

    /** Attach pool counters observed over the whole run. */
    void setCounters(const exec::ExecCounters &counters)
    {
        tasks_run_ = counters.tasks_run;
        steals_ = counters.steals;
    }

    /** Attach the run's supervision tallies (retry/deadline path). */
    void setSupervisor(const SupervisorSummary &summary)
    {
        supervisor_ = summary;
    }

    unsigned threads() const { return threads_; }

    /** Total recorded shard time (serial-equivalent work) [ms]. */
    double shardTotalMs() const
    {
        double total = 0.0;
        for (double ms : wall_ms_)
            total += ms;
        return total;
    }

    /**
     * Write BENCH_<name>.json (or an explicit path): bench name,
     * thread count, total wall-clock, pool counters, supervision
     * tallies (when attached), and one entry per shard. The JSON is
     * composed in memory and published with writeFileAtomic, so a
     * crash mid-write never leaves a truncated report behind.
     * Returns the path written, or "" on failure.
     */
    std::string writeJson(double total_wall_ms,
                          const std::string &path = "") const
    {
        std::string out_path =
            path.empty() ? "BENCH_" + name_ + ".json" : path;
        char buf[192];
        std::string json = "{\n  \"bench\": \"" + name_ + "\",\n";
        std::snprintf(buf, sizeof(buf), "  \"threads\": %u,\n",
                      threads_);
        json += buf;
        std::snprintf(buf, sizeof(buf),
                      "  \"total_wall_ms\": %.3f,\n"
                      "  \"shard_total_ms\": %.3f,\n"
                      "  \"tasks_run\": %llu,\n  \"steals\": %llu,\n",
                      total_wall_ms, shardTotalMs(),
                      static_cast<unsigned long long>(tasks_run_),
                      static_cast<unsigned long long>(steals_));
        json += buf;
        if (supervisor_.enabled) {
            std::snprintf(buf, sizeof(buf),
                          "  \"supervisor\": {\"ok\": %zu, "
                          "\"retried\": %zu, \"timed_out\": %zu, "
                          "\"quarantined\": %zu, \"max_retries\": %u, "
                          "\"deadline_ms\": %.3f},\n",
                          supervisor_.ok, supervisor_.retried,
                          supervisor_.timed_out,
                          supervisor_.quarantined,
                          supervisor_.max_retries,
                          supervisor_.deadline_ms);
            json += buf;
        }
        json += "  \"shards\": [\n";
        for (size_t i = 0; i < labels_.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "\"wall_ms\": %.3f}%s\n",
                          wall_ms_[i],
                          i + 1 < labels_.size() ? "," : "");
            json += "    {\"label\": \"" + labels_[i] + "\", ";
            json += buf;
        }
        json += "  ]\n}\n";
        Status written = writeFileAtomic(out_path, json);
        if (!written.ok()) {
            std::fprintf(stderr, "RunMeta: cannot write %s (%s)\n",
                         out_path.c_str(),
                         written.error().message.c_str());
            return "";
        }
        return out_path;
    }

    /** One-line human summary of the scaling evidence. */
    void printSummary(double total_wall_ms) const
    {
        std::printf("[exec] threads=%u shards=%zu "
                    "wall=%.1f ms (shard total %.1f ms, tasks=%llu, "
                    "steals=%llu)\n",
                    threads_, labels_.size(),
                    total_wall_ms, shardTotalMs(),
                    static_cast<unsigned long long>(tasks_run_),
                    static_cast<unsigned long long>(steals_));
    }

  private:
    std::string name_;
    unsigned threads_;
    std::vector<std::string> labels_;
    std::vector<double> wall_ms_;
    uint64_t tasks_run_ = 0;
    uint64_t steals_ = 0;
    SupervisorSummary supervisor_;
};

/**
 * Thermal integrator from `--solver=rk4|modal`, defaulting
 * to the caller's choice when the flag is absent (the figure benches
 * default to the paper-faithful RK4 oracle; docs/THERMAL.md has the
 * selection guidance). An
 * unrecognized value is a usage error: print it and exit(2) rather
 * than silently benchmarking the wrong integrator.
 */
inline ThermalSolver
thermalSolverFromFlags(const Flags &flags, ThermalSolver fallback)
{
    std::string value = flags.get("solver", "");
    if (value.empty())
        return fallback;
    if (auto solver = parseThermalSolver(value))
        return *solver;
    std::fprintf(stderr,
                 "--solver=%s: expected rk4 or modal\n",
                 value.c_str());
    std::exit(2);
}

/** Print a horizontal rule sized to `width` characters. */
inline void
rule(unsigned width)
{
    for (unsigned i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Print a bench banner with the paper artifact being reproduced. */
inline void
banner(const char *artifact, const char *description)
{
    rule(72);
    std::printf("nanobus reproduction | %s\n%s\n", artifact,
                description);
    rule(72);
}

} // namespace bench
} // namespace nanobus

#endif // NANOBUS_BENCH_BENCH_COMMON_HH
