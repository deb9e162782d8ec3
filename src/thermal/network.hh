/**
 * @file
 * Thermal-RC network for a bus (Sec 4.1, Eqs 3-4 of the paper).
 *
 * Every wire is a thermal node with capacitance C, a resistance
 * R_self toward the layers below, and lateral resistances R_inter to
 * its adjacent wires — the same three values for every wire. Eq 3
 * (edge wires, one neighbor) and Eq 4 (middle wires, two neighbors)
 * form the linear system dθ/dt = A θ + b whose wire block is
 * −(g_self/C)·I − (g_lat/C)·L, with L the path Laplacian with Neumann
 * ends; in StackMode::Dynamic one shared stack node couples to every
 * wire through the same g_self.
 *
 * Two integrators step it (ThermalConfig::solver; docs/THERMAL.md):
 *
 *  - ThermalSolver::Modal — the default: the exact solution of the
 *    interval under constant power. The orthonormal DCT-II (la/dct)
 *    diagonalizes L with eigenvalues λ_k = 2 − 2cos(πk/N), so every
 *    mode k >= 1 relaxes on its own, X_k ← X*_k + e^(−μ_k h)(X_k −
 *    X*_k) with μ_k = (g_self + g_lat λ_k)/C. The stack touches only
 *    the mean mode k = 0, so (mean, stack) moves by a closed-form
 *    2×2 exponential. No step, tolerance or factorization: two
 *    O(N log N) transforms per interval whatever its length.
 *  - ThermalSolver::Rk4 — classical RK4, the method the paper uses
 *    and the test oracle. Explicit, so the step width is bounded by
 *    the stiffest wire time constant regardless of the horizon.
 *
 * The reference the wires sink heat into is configurable:
 *  - StackMode::None    — the constant ambient theta_0 (Eqs 3-4
 *    verbatim; inter-layer heating ignored).
 *  - StackMode::Static  — ambient plus the constant Eq 7 offset.
 *  - StackMode::Dynamic — a shared BEOL "stack" node with its own
 *    (large) thermal capacitance, heated by the lower layers'
 *    constant j_max dissipation and by the bus itself, and draining
 *    to ambient through a stack resistance. Its steady state equals
 *    the Static offset, and its time constant reproduces the slow
 *    ramp to saturation seen in Fig 4 (DESIGN.md substitution #5).
 */

#ifndef NANOBUS_THERMAL_NETWORK_HH
#define NANOBUS_THERMAL_NETWORK_HH

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "la/dct.hh"
#include "tech/technology.hh"
#include "thermal/wire_thermal.hh"
#include "util/ode.hh"
#include "util/result.hh"
#include "util/units.hh"

namespace nanobus {

/**
 * One detected-and-contained thermal anomaly (advanceChecked()).
 *
 * The guarded simulation path never lets a numerical blow-up or a
 * physically impossible temperature propagate: the state is clamped,
 * the incident is recorded as a ThermalFault, and the sweep
 * continues. Faults surface in the experiment result so a batch run
 * over millions of trace segments reports which cells misbehaved
 * instead of dying on the first one.
 */
struct ThermalFault
{
    enum class Kind {
        /** The integration produced NaN/inf (RK4 even after
         *  exhausting its step halvings). */
        NonFinite,
        /** A node crossed the configured temperature ceiling. */
        Ceiling,
        /** Temperatures rose monotonically above the steady-state
         *  bound — numerically impossible for a passive RC network,
         *  so the integration is diverging. */
        Divergence,
    };

    Kind kind = Kind::NonFinite;
    /** Offending node (numWires() for the stack node). */
    unsigned node = 0;
    /** Observed temperature before clamping. */
    Kelvin temperature;
    /** Simulation cycle of the interval (filled by BusSimulator). */
    uint64_t cycle = 0;
    /** Human-readable description. */
    std::string message;
};

/** Readable name of a thermal-fault kind. */
const char *thermalFaultKindName(ThermalFault::Kind kind);

/** How the inter-layer heat path is modeled. */
enum class StackMode {
    None,
    Static,
    Dynamic,
};

/**
 * Which integrator advances the network (docs/THERMAL.md has the
 * selection guidance in full). The values are the checkpoint solver
 * tags: 1 belonged to the retired TR-BDF2 and is never reused, so a
 * checkpoint taken under it is refused instead of resumed.
 *
 *  - Rk4: the paper's method and the equivalence oracle. Cost per
 *    interval grows with interval / (0.2 τ_min) — stiffness-bound.
 *  - Modal: the exact interval update. Cost per interval: two
 *    O(N log N) transforms, whatever the interval's length.
 */
enum class ThermalSolver {
    Rk4 = 0,
    Modal = 2,
};

/** Readable solver name ("rk4" / "modal"). */
const char *thermalSolverName(ThermalSolver solver);

/** Parse a solver name as accepted by bench --solver flags: "rk4",
 *  "modal". */
std::optional<ThermalSolver> parseThermalSolver(
    const std::string &name);

/** Thermal network configuration. */
struct ThermalConfig
{
    /** Ambient / substrate temperature theta_0; the paper uses
     *  45 C = 318.15 K. */
    Kelvin ambient{318.15};
    /** Model lateral wire-to-wire conduction (Sec 4.1.1). */
    bool lateral_coupling = true;
    /** Inter-layer heat path mode. */
    StackMode stack_mode = StackMode::Dynamic;
    /** Eq 7 temperature offset (Static and Dynamic modes). */
    Kelvin delta_theta;
    /** Stack-to-ambient resistance (Dynamic mode). */
    KelvinMetersPerWatt stack_resistance{0.05};
    /** Stack time constant (Dynamic mode); sets the Fig 4 ramp. */
    Seconds stack_time_constant{0.020};
    /** Integrator stepping the network. Modal is the default;
     *  Rk4 is the paper-faithful oracle (see ThermalSolver). */
    ThermalSolver solver = ThermalSolver::Modal;
    /**
     * RK4 step ceiling; 0 = derive from network stiffness as
     * 0.2 τ_min (τ_min the fastest node time constant). Gershgorin
     * bounds the stiffest eigenvalue by |λ| <= 2/τ_min, so RK4's
     * real-axis stability interval |λ| dt < 2.785 needs
     * dt < 1.39 τ_min — the derived step carries a ~7x margin,
     * asserted in the constructor and revalidated by reset().
     * A *user-supplied* ceiling is taken as-is (tests deliberately
     * exceed the bound to exercise the divergence guard). Ignored
     * by Modal.
     */
    Seconds max_dt;
    /**
     * Thermal-runaway guard for advanceChecked(): any node above
     * this ceiling is clamped and reported as a ThermalFault. The
     * default sits far above any legitimate BEOL temperature (metal
     * interconnect fails well below copper's 1358 K melting point)
     * but catches numerical blow-ups early. 0 disables the check.
     */
    Kelvin temperature_ceiling{1000.0};
    /** RK4 step-halving budget for the checked integration. */
    unsigned max_integration_retries = 12;
    /**
     * Consecutive advanceChecked() calls with the peak temperature
     * rising beyond the steady-state bound before a Divergence fault
     * is raised (transients may legitimately sit *above* steady
     * state while cooling, but cannot rise away from it).
     */
    unsigned divergence_streak = 3;
};

/** Thermal-RC simulation of an N-wire bus. */
class ThermalNetwork
{
  public:
    /**
     * @param tech Technology node (geometry + dielectric).
     * @param num_wires Bus width (>= 1).
     * @param config Network configuration.
     */
    ThermalNetwork(const TechnologyNode &tech, unsigned num_wires,
                   const ThermalConfig &config = ThermalConfig());

    /** Number of wires. */
    unsigned numWires() const { return num_wires_; }

    /** Per-wire thermal parameters in use. */
    const WireThermalParams &wireParams() const { return params_; }

    /** Active configuration. */
    const ThermalConfig &config() const { return config_; }

    /** Current temperature of wire i. */
    Kelvin temperature(unsigned i) const;

    /** All wire temperatures [K] (bulk solver-boundary buffer). */
    std::vector<double> temperatures() const;

    /** Hottest wire temperature. */
    Kelvin maxTemperature() const;

    /** Mean wire temperature. */
    Kelvin averageTemperature() const;

    /** Stack node temperature (ambient-referenced modes return
     *  the effective reference). */
    Kelvin stackTemperature() const;

    /** Reset every node to the given temperature. */
    void reset(Kelvin temperature);

    /**
     * Advance the network by `duration` with the given per-wire
     * dissipated power [W/m] held constant.
     */
    void advance(const std::vector<double> &power_per_metre,
                 Seconds duration);

    /**
     * Numerically guarded advance(): integrates with the configured
     * solver's checked path, then applies the thermal-runaway
     * guards (non-finite containment, temperature ceiling, monotonic
     * divergence versus the steady-state bound). Any anomaly clamps
     * the offending state and is returned as a ThermalFault; the
     * network stays usable and the caller's sweep continues.
     */
    [[nodiscard]] std::vector<ThermalFault> advanceChecked(
        const std::vector<double> &power_per_metre, Seconds duration);

    /**
     * Steady-state wire temperatures [K] under constant per-wire
     * power [W/m]: the conductance system G θ = b solved per mode
     * (one division each between a forward and an inverse DCT), used
     * to validate the transient integration and by the divergence
     * guard.
     */
    std::vector<double> steadyState(
        const std::vector<double> &power_per_metre) const;

    /** The RK4 step width in use (stability-derived or the
     *  max_dt override; see ThermalConfig::max_dt). Modal ignores
     *  it — it crosses every interval in one exact update. */
    Seconds stepWidth() const { return Seconds{dt_}; }

    /** The integrator in use. */
    ThermalSolver solver() const { return config_.solver; }

    /**
     * Full mutable state, for checkpoint/resume (sim/snapshot.hh):
     * the raw node vector (wires, then the optional stack node) plus
     * the divergence-guard bookkeeping that spans advanceChecked()
     * calls. Restoring on an identically configured network makes
     * further advances bit-identical to one that never stopped.
     */
    struct SnapshotState
    {
        std::vector<double> nodes;
        double last_max_temp = 0.0;
        unsigned rising_streak = 0;
    };

    /** Capture the network state. */
    SnapshotState snapshotState() const
    {
        return SnapshotState{state_, last_max_temp_, rising_streak_};
    }

    /**
     * Restore a previously captured state. InvalidArgument when the
     * node count does not match this network's topology.
     */
    [[nodiscard]] Status restoreSnapshotState(const SnapshotState &s);

  private:
    void derivative(const std::vector<double> &theta,
                    std::vector<double> &dtheta,
                    const std::vector<double> &power) const;

    bool dynamicStack() const
    {
        return config_.stack_mode == StackMode::Dynamic;
    }

    /** Reference temperature wires sink into (non-dynamic modes). */
    double referenceTemperature() const;

    /** Raw peak wire temperature for the internal guard loops. */
    double maxTemperatureRaw() const;

    /** Derive (and contract-check) the RK4 step width from the
     *  stiffest node time constant; pure in the network parameters,
     *  so reset() can revalidate it (see ThermalConfig::max_dt). */
    double deriveRk4Step() const;

    /** Shared integration dispatch for advance()/advanceChecked():
     *  steps state_ by `duration` under `power` with the configured
     *  solver, reporting through the IntegrationReport taxonomy. */
    [[nodiscard]] IntegrationReport integrateInterval(
        const std::vector<double> &power, double duration);

    /** The exact modal update of state_ over `duration`. Computes
     *  into next_ and commits only a finite result. */
    [[nodiscard]] IntegrationReport integrateModal(
        const std::vector<double> &power, double duration);

    /** Per-mode steady targets for the power modes `q`: wire-mode
     *  rises above ambient into `target`, the stack's rise returned
     *  (Dynamic mode; 0 otherwise). */
    double modalTargets(std::span<const double> q,
                        std::span<double> target) const;

    /** Wire temperatures [K] of the modal rises `target`: one
     *  inverse DCT. */
    std::vector<double> wireTemperatures(std::span<const double> target,
                                         Dct::Workspace &work) const;

    /** Refresh the per-mode decay factors for interval `duration`. */
    void prepareDecay(double duration);

    unsigned num_wires_;
    ThermalConfig config_;
    WireThermalParams params_;

    double r_self_;     // [K m / W]
    double r_lateral_;  // [K m / W]
    double c_wire_;     // [J / (K m)]
    double c_stack_ = 0.0;
    double p_lower_ = 0.0;  // constant lower-layer power [W/m]
    double dt_;

    std::vector<double> state_;  // wires, then optional stack node
    Rk4Solver solver_;

    // Modal update. mode_conductance_[k] = g_self + g_lat λ_k
    // [W/(K m)]; the decay factors are a pure function of
    // decay_duration_, so they never carry history between calls.
    Dct dct_;
    Dct::Workspace dct_work_;
    std::vector<double> mode_conductance_;
    double decay_duration_ = 0.0;
    std::vector<double> decay_;       // e^(−μ_k h) per wire mode
    double mean_stack_decay_[2][2] = {};  // Dynamic: (X_0, stack)
    std::vector<double> rises_;       // wire rises above ambient
    std::vector<double> modes_;       // their DCT, updated in place
    std::vector<double> power_modes_;
    std::vector<double> target_;      // last interval's steady modes
    std::vector<double> next_;        // candidate state

    // Divergence tracking across advanceChecked() calls.
    double last_max_temp_ = 0.0;
    unsigned rising_streak_ = 0;
};

} // namespace nanobus

#endif // NANOBUS_THERMAL_NETWORK_HH
