/**
 * @file
 * perf_thermal — scaling study of the structured thermal solver
 * (src/thermal over src/la): the width ladder 32 / 512 / 4096 /
 * 10000 wires stepped by each ThermalSolver (RK4 oracle, TR-BDF2),
 * timing milliseconds per simulated interval.
 *
 * Protocol (same discipline as perf_fabric / perf_pipeline): every
 * timing cell is gated on correctness pins run first —
 *
 *  1. steady-state equivalence: after ~10 stack time constants each
 *     solver (RK4 oracle, TR-BDF2) must land on the direct banded
 *     solve of G θ = b within 1e-6 relative;
 *  2. transient equivalence: over one wire time constant (the Fig 4
 *     ramp shape at interval scale) the TR-BDF2 trajectory must
 *     track the RK4 oracle within a small fraction of the rise.
 *
 * The timed ladder then runs; RK4 cells stop at --rk4-max-width
 * (the explicit step count is width-independent but the per-step
 * cost is not, and the point of the study is that the implicit
 * per-interval cost at 10k wires undercuts even the narrowest RK4
 * cell). The acceptance block gates exactly that claim: the widest
 * TR-BDF2 cell must be faster per simulated interval than the
 * 32-wire RK4 oracle. Everything lands in BENCH_thermal.json
 * (`tools/check_bench.py thermal` validates the schema).
 *
 * Flags: --intervals=N --interval-s=F --rk4-max-width=N
 *        --json=PATH --smoke (short ladder, few intervals)
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "tech/technology.hh"
#include "thermal/network.hh"
#include "util/logging.hh"

using namespace nanobus;

namespace {

constexpr double kAmbient = 318.15; // paper's 45 C substrate [K]

/** Dynamic-stack thermal config for one cell. The pins shrink the
 *  stack time constant so the RK4 oracle reaches steady state in a
 *  horizon it can afford. */
ThermalConfig
cellThermalConfig(ThermalSolver solver, double stack_tau_s)
{
    ThermalConfig config;
    config.ambient = Kelvin{kAmbient};
    config.stack_mode = StackMode::Dynamic;
    config.delta_theta = Kelvin{12.0};
    config.stack_time_constant = Seconds{stack_tau_s};
    config.solver = solver;
    return config;
}

/** Per-wire power [W/m] sized off the self resistance so the wire
 *  rise lands in the 10-18 K band whatever the node geometry. */
std::vector<double>
cellPower(const ThermalNetwork &net)
{
    const double r_self = net.wireParams().selfResistance().raw();
    std::vector<double> power(net.numWires());
    for (unsigned i = 0; i < net.numWires(); ++i)
        power[i] = (10.0 + 2.0 * static_cast<double>(i % 5)) / r_self;
    return power;
}

double
maxRelativeError(const std::vector<double> &probe,
                 const std::vector<double> &reference)
{
    double worst = 0.0;
    for (size_t i = 0; i < probe.size() && i < reference.size(); ++i)
        worst = std::max(worst,
                         std::fabs(probe[i] - reference[i]) /
                             std::fabs(reference[i]));
    return worst;
}

constexpr double kSteadyTolerance = 1e-6;   // relative, vs direct
constexpr double kTransientTolerance = 0.02; // fraction of the rise

struct EquivalencePin
{
    double steady_rel_err_rk4 = 0.0;
    double steady_rel_err_trbdf2 = 0.0;
    double transient_rel_dev_trbdf2 = 0.0;
    bool passed = false;
};

/**
 * Steady-state pin: integrate a 32-wire Dynamic-stack network to
 * ~10 stack time constants with each solver and compare against the
 * direct banded solve. TR-BDF2 is exactly fixed-point-preserving,
 * so 1e-6 relative is a conservative gate even for the RK4 oracle.
 */
bool
pinSteadyState(const TechnologyNode &tech, EquivalencePin &pin)
{
    const double stack_tau = 1e-3;
    const unsigned width = 32;
    double *slots[] = {&pin.steady_rel_err_rk4,
                       &pin.steady_rel_err_trbdf2};
    const ThermalSolver solvers[] = {ThermalSolver::Rk4,
                                     ThermalSolver::TrBdf2};
    for (size_t s = 0; s < 2; ++s) {
        ThermalNetwork net(
            tech, width, cellThermalConfig(solvers[s], stack_tau));
        const std::vector<double> power = cellPower(net);
        const std::vector<double> direct = net.steadyState(power);
        for (int k = 0; k < 64; ++k) // horizon = 16 stack tau
            net.advance(power, Seconds{stack_tau / 4.0});
        const double err =
            maxRelativeError(net.temperatures(), direct);
        *slots[s] = err;
        if (!(err <= kSteadyTolerance)) {
            std::fprintf(stderr,
                         "FAIL: %s steady state off the direct solve "
                         "by %.3e relative (gate %.1e)\n",
                         thermalSolverName(solvers[s]), err,
                         kSteadyTolerance);
            return false;
        }
    }
    std::printf("steady-state pin: rk4 %.2e, tr-bdf2 %.2e relative "
                "vs the direct banded solve (gate %.0e)\n",
                pin.steady_rel_err_rk4, pin.steady_rel_err_trbdf2,
                kSteadyTolerance);
    return true;
}

/**
 * Transient pin: one wire time constant of ramp (the steep part of
 * the Fig 4 shape), the TR-BDF2 trajectory vs the RK4 oracle,
 * deviation measured as a fraction of the oracle's rise.
 */
bool
pinTransient(const TechnologyNode &tech, EquivalencePin &pin)
{
    const double stack_tau = 1e-3;
    const unsigned width = 32;

    ThermalNetwork oracle(
        tech, width,
        cellThermalConfig(ThermalSolver::Rk4, stack_tau));
    const std::vector<double> power = cellPower(oracle);
    const double tau_wire = oracle.wireParams().timeConstant().raw();
    oracle.advance(power, Seconds{tau_wire});
    const std::vector<double> reference = oracle.temperatures();
    double rise = 0.0;
    for (double t : reference)
        rise = std::max(rise, t - kAmbient);
    if (!(rise > 0.0)) {
        std::fprintf(stderr, "FAIL: transient pin saw no rise\n");
        return false;
    }

    ThermalNetwork net(
        tech, width,
        cellThermalConfig(ThermalSolver::TrBdf2, stack_tau));
    net.advance(power, Seconds{tau_wire});
    const std::vector<double> probe = net.temperatures();
    double dev = 0.0;
    for (size_t i = 0; i < probe.size(); ++i)
        dev = std::max(dev, std::fabs(probe[i] - reference[i]));
    pin.transient_rel_dev_trbdf2 = dev / rise;
    if (!(pin.transient_rel_dev_trbdf2 <= kTransientTolerance)) {
        std::fprintf(stderr,
                     "FAIL: tr-bdf2 transient deviates from RK4 by "
                     "%.1f%% of the rise (gate %.0f%%)\n",
                     100.0 * pin.transient_rel_dev_trbdf2,
                     100.0 * kTransientTolerance);
        return false;
    }
    std::printf("transient pin: tr-bdf2 %.2e of a %.2f K rise vs the "
                "RK4 oracle over one wire tau\n\n",
                pin.transient_rel_dev_trbdf2, rise);
    return true;
}

struct Cell
{
    unsigned width = 0;
    ThermalSolver solver = ThermalSolver::Rk4;
    double wall_ms = 0.0;
    double ms_per_interval = 0.0;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    bench::Flags flags(argc, argv);
    const bool smoke = flags.has("smoke");
    const double interval_s =
        flags.getF64("interval-s", smoke ? 2e-4 : 1e-3);
    const uint64_t intervals =
        flags.getU64("intervals", smoke ? 3 : 20);
    const uint64_t rk4_max_width =
        flags.getU64("rk4-max-width", smoke ? 32 : 512);
    const std::string json_path = flags.get("json", "");

    bench::banner("thermal solver scaling (src/thermal + src/la)",
                  "TR-BDF2 banded stepper vs the RK4 oracle on the "
                  "wire-width ladder (equivalence-gated)");

    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    bench::WallTimer total_timer;

    // ------------------------------------------------------------
    // Correctness pins before any timing.
    // ------------------------------------------------------------
    EquivalencePin pin;
    if (!pinSteadyState(tech, pin) || !pinTransient(tech, pin))
        return 1;
    pin.passed = true;

    // ------------------------------------------------------------
    // Timed ladder: widths x solvers, ms per simulated interval.
    // The TR-BDF2 cells pay one operator factorization per ladder
    // rung on the first interval and three O(width) solves per step
    // after that, with the step count following the transient; the
    // RK4 cells pay duration / (0.2 tau_min) steps per interval
    // regardless of the horizon.
    // ------------------------------------------------------------
    const std::vector<unsigned> ladder =
        smoke ? std::vector<unsigned>{32, 512}
              : std::vector<unsigned>{32, 512, 4096, 10000};
    bench::RunMeta meta("thermal", 1);

    std::printf("timed cells (%llu intervals of %.1e s each):\n",
                static_cast<unsigned long long>(intervals),
                interval_s);
    std::vector<Cell> cells;
    for (unsigned width : ladder) {
        for (ThermalSolver solver : {ThermalSolver::Rk4,
                                     ThermalSolver::TrBdf2}) {
            if (solver == ThermalSolver::Rk4 &&
                width > rk4_max_width)
                continue;
            ThermalNetwork net(
                tech, width, cellThermalConfig(solver, 0.020));
            const std::vector<double> power = cellPower(net);
            bench::WallTimer timer;
            for (uint64_t k = 0; k < intervals; ++k)
                net.advance(power, Seconds{interval_s});
            Cell cell;
            cell.width = width;
            cell.solver = solver;
            cell.wall_ms = timer.ms();
            cell.ms_per_interval =
                cell.wall_ms / static_cast<double>(intervals);
            cells.push_back(cell);

            char label[64];
            std::snprintf(label, sizeof(label), "w%u.%s", width,
                          thermalSolverName(solver));
            std::printf("  %-22s %9.3f ms  %9.4f ms/interval\n",
                        label, cell.wall_ms, cell.ms_per_interval);
            meta.addShard(label, cell.wall_ms);
        }
    }

    // ------------------------------------------------------------
    // Acceptance: the widest TR-BDF2 cell must step a simulated
    // interval faster than the narrowest RK4 oracle cell.
    // ------------------------------------------------------------
    const Cell *rk4_base = nullptr;
    const Cell *implicit_cell = nullptr;
    const unsigned max_width = ladder.back();
    for (const Cell &cell : cells) {
        if (cell.solver == ThermalSolver::Rk4 &&
            (!rk4_base || cell.width < rk4_base->width))
            rk4_base = &cell;
        if (cell.solver == ThermalSolver::TrBdf2 &&
            cell.width == max_width)
            implicit_cell = &cell;
    }
    if (!rk4_base || !implicit_cell)
        fatal("perf_thermal: acceptance cells missing from ladder");
    const bool accepted = implicit_cell->ms_per_interval <
                          rk4_base->ms_per_interval;
    const double speedup =
        implicit_cell->ms_per_interval > 0.0
            ? rk4_base->ms_per_interval /
                  implicit_cell->ms_per_interval
            : 0.0;
    std::printf("\nacceptance: %u-wire %s %.4f ms/interval vs "
                "%u-wire rk4 %.4f ms/interval (%.1fx) — %s\n",
                implicit_cell->width,
                thermalSolverName(implicit_cell->solver),
                implicit_cell->ms_per_interval, rk4_base->width,
                rk4_base->ms_per_interval, speedup,
                accepted ? "PASS" : "FAIL");

    // ------------------------------------------------------------
    // BENCH_thermal.json: equivalence numbers, the full cell table,
    // and the acceptance verdict.
    // ------------------------------------------------------------
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"steady_rel_err_rk4\": %.6e, "
                  "\"steady_rel_err_trbdf2\": %.6e, "
                  "\"steady_tolerance\": %.1e, "
                  "\"transient_rel_dev_trbdf2\": %.6e, "
                  "\"passed\": %s}",
                  pin.steady_rel_err_rk4, pin.steady_rel_err_trbdf2,
                  kSteadyTolerance, pin.transient_rel_dev_trbdf2,
                  pin.passed ? "true" : "false");
    meta.addSection("equivalence", buf);

    std::string table = "[\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        std::snprintf(buf, sizeof(buf),
                      "    {\"width\": %u, \"solver\": \"%s\", "
                      "\"intervals\": %llu, \"wall_ms\": %.3f, "
                      "\"ms_per_interval\": %.4f}%s\n",
                      cells[i].width,
                      thermalSolverName(cells[i].solver),
                      static_cast<unsigned long long>(intervals),
                      cells[i].wall_ms, cells[i].ms_per_interval,
                      i + 1 < cells.size() ? "," : "");
        table += buf;
    }
    table += "  ]";
    meta.addSection("cells", table);

    std::snprintf(buf, sizeof(buf),
                  "{\"implicit_width\": %u, "
                  "\"implicit_solver\": \"%s\", "
                  "\"implicit_ms_per_interval\": %.4f, "
                  "\"rk4_width\": %u, "
                  "\"rk4_ms_per_interval\": %.4f, "
                  "\"speedup\": %.2f, \"passed\": %s}",
                  implicit_cell->width,
                  thermalSolverName(implicit_cell->solver),
                  implicit_cell->ms_per_interval, rk4_base->width,
                  rk4_base->ms_per_interval, speedup,
                  accepted ? "true" : "false");
    meta.addSection("acceptance", buf);

    const std::string written =
        meta.writeJson(total_timer.ms(), json_path);
    if (!written.empty())
        std::printf("wrote %s\n", written.c_str());
    return accepted ? 0 : 1;
}
