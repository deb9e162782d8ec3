#include "thermal/network.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "util/contracts.hh"
#include "util/logging.hh"

namespace nanobus {

const char *
thermalFaultKindName(ThermalFault::Kind kind)
{
    switch (kind) {
      case ThermalFault::Kind::NonFinite:  return "non-finite";
      case ThermalFault::Kind::Ceiling:    return "ceiling";
      case ThermalFault::Kind::Divergence: return "divergence";
    }
    return "unknown";
}

const char *
thermalSolverName(ThermalSolver solver)
{
    switch (solver) {
      case ThermalSolver::Rk4:    return "rk4";
      case ThermalSolver::TrBdf2: return "tr-bdf2";
    }
    return "unknown";
}

std::optional<ThermalSolver>
parseThermalSolver(const std::string &name)
{
    if (name == "rk4")
        return ThermalSolver::Rk4;
    if (name == "tr-bdf2" || name == "trbdf2")
        return ThermalSolver::TrBdf2;
    return std::nullopt;
}

ThermalNetwork::ThermalNetwork(const TechnologyNode &tech,
                               unsigned num_wires,
                               const ThermalConfig &config)
    : num_wires_(num_wires), config_(config), params_(tech),
      solver_(num_wires +
              (config.stack_mode == StackMode::Dynamic ? 1 : 0)),
      trbdf2_(num_wires +
              (config.stack_mode == StackMode::Dynamic ? 1 : 0))
{
    if (num_wires == 0)
        fatal("ThermalNetwork: bus must have at least one wire");
    if (config_.ambient.raw() <= 0.0)
        fatal("ThermalNetwork: ambient %g K must be positive",
              config_.ambient.raw());

    r_self_ = params_.selfResistance().raw();
    r_lateral_ = params_.lateralResistance().raw();
    c_wire_ = params_.capacitance().raw();

    if (dynamicStack()) {
        if (config_.stack_resistance.raw() <= 0.0 ||
            config_.stack_time_constant.raw() <= 0.0)
            fatal("ThermalNetwork: dynamic stack needs positive "
                  "resistance and time constant");
        // s / (K m / W) composes to J / (K m); K / (K m / W) to W/m.
        c_stack_ = (config_.stack_time_constant /
                    config_.stack_resistance).raw();
        p_lower_ = (config_.delta_theta /
                    config_.stack_resistance).raw();
    }

    // A user-supplied ceiling is taken as-is (ThermalConfig::max_dt:
    // tests deliberately exceed the stability bound to exercise the
    // divergence guard); 0 derives the contract-checked step.
    dt_ = config_.max_dt.raw() > 0.0 ? config_.max_dt.raw()
                                     : deriveRk4Step();

    assembleJacobian();
    forcing_.assign(solver_.dimension(), 0.0);
    state_.assign(solver_.dimension(), config_.ambient.raw());
}

double
ThermalNetwork::deriveRk4Step() const
{
    // Explicit RK4 stability: bound the step by the fastest node
    // time constant. A wire's effective conductance combines its
    // downward path and both lateral paths.
    double wire_conductance = 1.0 / r_self_;
    if (config_.lateral_coupling && num_wires_ > 1)
        wire_conductance += 2.0 / r_lateral_;
    double tau_min = c_wire_ / wire_conductance;
    if (dynamicStack()) {
        double stack_conductance =
            1.0 / config_.stack_resistance.raw() +
            static_cast<double>(num_wires_) / r_self_;
        tau_min = std::min(tau_min, c_stack_ / stack_conductance);
    }
    const double step = 0.2 * tau_min;
    // Gershgorin bounds the stiffest eigenvalue by |lambda| <=
    // 2 / tau_min; RK4's real-axis stability interval |lambda| dt <
    // 2.785 therefore needs dt < 1.39 tau_min. The derived step must
    // sit inside that interval (with its designed ~7x margin) or the
    // default integration would silently diverge.
    NANOBUS_ENSURE(step > 0.0 && std::isfinite(step) &&
                       2.0 * step / tau_min < 2.785,
                   "derived RK4 step %g s outside the stability "
                   "interval of tau_min %g s", step, tau_min);
    return step;
}

void
ThermalNetwork::assembleJacobian()
{
    const bool dyn = dynamicStack();
    jacobian_ = dyn ? BandedMatrix::bordered(num_wires_)
                    : BandedMatrix::tridiagonal(num_wires_);

    const double g_self = 1.0 / r_self_;
    const double g_lat =
        config_.lateral_coupling ? 1.0 / r_lateral_ : 0.0;

    for (unsigned i = 0; i < num_wires_; ++i) {
        double g_total = g_self;
        if (g_lat > 0.0) {
            if (i > 0) {
                g_total += g_lat;
                jacobian_.lower(i - 1) = g_lat / c_wire_;  // a(i, i-1)
            }
            if (i + 1 < num_wires_) {
                g_total += g_lat;
                jacobian_.upper(i) = g_lat / c_wire_;      // a(i, i+1)
            }
        }
        jacobian_.diag(i) = -g_total / c_wire_;
        if (dyn)
            jacobian_.borderCol(i) = g_self / c_wire_;
    }

    if (dyn) {
        const double g_stack = 1.0 / config_.stack_resistance.raw();
        for (unsigned i = 0; i < num_wires_; ++i)
            jacobian_.borderRow(i) = g_self / c_stack_;
        jacobian_.corner() =
            -(static_cast<double>(num_wires_) * g_self + g_stack) /
            c_stack_;
    }
}

void
ThermalNetwork::buildForcing(const std::vector<double> &power)
{
    const bool dyn = dynamicStack();
    const double g_self = 1.0 / r_self_;
    const double ref = dyn ? 0.0 : referenceTemperature();

    for (unsigned i = 0; i < num_wires_; ++i) {
        forcing_[i] = power[i] / c_wire_;
        if (!dyn)
            forcing_[i] += g_self * ref / c_wire_;
    }
    if (dyn) {
        const double g_stack = 1.0 / config_.stack_resistance.raw();
        forcing_[num_wires_] =
            (p_lower_ + g_stack * config_.ambient.raw()) / c_stack_;
    }
}

const BandedFactorization *
ThermalNetwork::rungFactor(double duration, unsigned rung, Error &error)
{
    if (duration != rung_duration_) {
        rung_factors_.clear();
        rung_duration_ = duration;
    }
    if (rung < rung_factors_.size() && rung_factors_[rung])
        return rung_factors_[rung].get();

    // M = I - (γh/2) A shares the Jacobian's structure. A is a
    // (weakly diagonally dominant) M-matrix, so M is *strictly*
    // diagonally dominant for any h > 0 — exactly the la/banded
    // no-pivoting contract.
    const double c = TrBdf2Solver<BandedFactorization>::kOperatorScale *
        std::ldexp(duration, -static_cast<int>(rung));
    BandedMatrix m = dynamicStack()
        ? BandedMatrix::bordered(num_wires_)
        : BandedMatrix::tridiagonal(num_wires_);
    for (unsigned i = 0; i < num_wires_; ++i) {
        m.diag(i) = 1.0 - c * jacobian_.diag(i);
        if (i + 1 < num_wires_) {
            m.upper(i) = -c * jacobian_.upper(i);
            m.lower(i) = -c * jacobian_.lower(i);
        }
        if (dynamicStack()) {
            m.borderCol(i) = -c * jacobian_.borderCol(i);
            m.borderRow(i) = -c * jacobian_.borderRow(i);
        }
    }
    if (dynamicStack())
        m.corner() = 1.0 - c * jacobian_.corner();

    Result<BandedFactorization> factor =
        BandedFactorization::tryFactor(std::move(m));
    if (!factor.ok()) {
        error = Error{factor.error().code,
                      "TR-BDF2 operator: " + factor.error().message};
        return nullptr;
    }
    if (rung >= rung_factors_.size())
        rung_factors_.resize(rung + 1);
    rung_factors_[rung] =
        std::make_unique<BandedFactorization>(factor.takeValue());
    return rung_factors_[rung].get();
}

IntegrationReport
ThermalNetwork::integrateInterval(const std::vector<double> &power,
                                  double duration)
{
    IntegrationReport report;
    if (config_.solver == ThermalSolver::Rk4) {
        auto deriv = [this, &power](double,
                                    const std::vector<double> &y,
                                    std::vector<double> &dydt) {
            derivative(y, dydt, power);
        };
        report = solver_.integrateChecked(
            deriv, 0.0, duration, dt_, state_,
            config_.max_integration_retries);
    } else {
        // The ladder restarts at one full-interval step every call,
        // so the steps depend only on (state, power, duration); the
        // rung cache only saves refactoring across equal intervals.
        buildForcing(power);
        auto factor_for = [this, duration](unsigned rung,
                                           Error &error) {
            return rungFactor(duration, rung, error);
        };
        auto apply = [this](const std::vector<double> &y,
                            std::vector<double> &ay) {
            jacobian_.multiply(y, ay);
        };
        report = trbdf2_.integrate(factor_for, apply, forcing_,
                                   duration, kStepTolerance, state_);
    }
    step_counts_.accepted += report.steps;
    step_counts_.rejected += report.retries;
    return report;
}

double
ThermalNetwork::referenceTemperature() const
{
    switch (config_.stack_mode) {
      case StackMode::None:
        return config_.ambient.raw();
      case StackMode::Static:
        return (config_.ambient + config_.delta_theta).raw();
      case StackMode::Dynamic:
        return state_.back();
    }
    panic("ThermalNetwork: bad stack mode");
}

Kelvin
ThermalNetwork::temperature(unsigned i) const
{
    if (i >= num_wires_)
        panic("ThermalNetwork::temperature: wire %u out of %u",
              i, num_wires_);
    return Kelvin{state_[i]};
}

std::vector<double>
ThermalNetwork::temperatures() const
{
    return std::vector<double>(state_.begin(),
                               state_.begin() + num_wires_);
}

double
ThermalNetwork::maxTemperatureRaw() const
{
    return *std::max_element(state_.begin(),
                             state_.begin() + num_wires_);
}

Kelvin
ThermalNetwork::maxTemperature() const
{
    return Kelvin{maxTemperatureRaw()};
}

Kelvin
ThermalNetwork::averageTemperature() const
{
    double sum = std::accumulate(state_.begin(),
                                 state_.begin() + num_wires_, 0.0);
    return Kelvin{sum / static_cast<double>(num_wires_)};
}

Kelvin
ThermalNetwork::stackTemperature() const
{
    return Kelvin{dynamicStack() ? state_.back()
                                 : referenceTemperature()};
}

void
ThermalNetwork::reset(Kelvin temperature)
{
    std::fill(state_.begin(), state_.end(), temperature.raw());
    last_max_temp_ = temperature.raw();
    rising_streak_ = 0;
    // dt_ is derived once in the constructor and the network
    // parameters it depends on are immutable, so a reset cannot
    // stale it — revalidate the invariant rather than trusting it.
    if (config_.max_dt.raw() <= 0.0)
        NANOBUS_ENSURE(dt_ == deriveRk4Step(),
                       "stability-derived RK4 step %g s went stale "
                       "across reset()", dt_);
}

Status
ThermalNetwork::restoreSnapshotState(const SnapshotState &s)
{
    if (s.nodes.size() != state_.size()) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "restoreSnapshotState: " +
                std::to_string(s.nodes.size()) + " node(s) for a " +
                std::to_string(state_.size()) + "-node network");
    }
    state_ = s.nodes;
    last_max_temp_ = s.last_max_temp;
    rising_streak_ = s.rising_streak;
    return Status();
}

void
ThermalNetwork::derivative(const std::vector<double> &theta,
                           std::vector<double> &dtheta,
                           const std::vector<double> &power) const
{
    const double ref = dynamicStack()
        ? theta[num_wires_]
        : referenceTemperature();

    double into_stack = 0.0;
    for (unsigned i = 0; i < num_wires_; ++i) {
        double downward = (theta[i] - ref) / r_self_;
        double lateral = 0.0;
        if (config_.lateral_coupling) {
            // Eq 3 for edge wires (one neighbor), Eq 4 for middle
            // wires (two neighbors).
            if (i > 0)
                lateral += (theta[i] - theta[i - 1]) / r_lateral_;
            if (i + 1 < num_wires_)
                lateral += (theta[i] - theta[i + 1]) / r_lateral_;
        }
        dtheta[i] = (power[i] - downward - lateral) / c_wire_;
        into_stack += downward;
    }

    if (dynamicStack()) {
        double to_ambient =
            (theta[num_wires_] - config_.ambient.raw()) /
            config_.stack_resistance.raw();
        dtheta[num_wires_] =
            (p_lower_ + into_stack - to_ambient) / c_stack_;
    }
}

void
ThermalNetwork::advance(const std::vector<double> &power_per_metre,
                        Seconds duration)
{
    if (power_per_metre.size() != num_wires_)
        fatal("ThermalNetwork::advance: %zu powers for %u wires",
              power_per_metre.size(), num_wires_);
    if (duration.raw() < 0.0)
        fatal("ThermalNetwork::advance: negative duration %g",
              duration.raw());
    if (duration.raw() == 0.0)
        return;

    IntegrationReport report =
        integrateInterval(power_per_metre, duration.raw());
    if (!report.ok)
        fatal("ThermalNetwork::advance (%s): %s",
              thermalSolverName(config_.solver),
              report.error.message.c_str());
}

std::vector<ThermalFault>
ThermalNetwork::advanceChecked(
    const std::vector<double> &power_per_metre, Seconds duration)
{
    if (power_per_metre.size() != num_wires_)
        fatal("ThermalNetwork::advanceChecked: %zu powers for %u "
              "wires", power_per_metre.size(), num_wires_);
    if (duration.raw() < 0.0)
        fatal("ThermalNetwork::advanceChecked: negative duration %g",
              duration.raw());

    std::vector<ThermalFault> faults;
    char buf[160];
    if (duration.raw() == 0.0)
        return faults;

    IntegrationReport report =
        integrateInterval(power_per_metre, duration.raw());
    if (!report.ok) {
        // The checked integrators leave the state at the last finite
        // value they reached; contain any residual poison defensively.
        ThermalFault fault;
        fault.kind = ThermalFault::Kind::NonFinite;
        std::snprintf(buf, sizeof(buf),
                      "integration failed after %.3g of %.3g s (%s)",
                      report.completed_time, duration.raw(),
                      report.error.message.c_str());
        fault.message = buf;
        for (size_t i = 0; i < state_.size(); ++i) {
            if (!std::isfinite(state_[i])) {
                fault.node = static_cast<unsigned>(i);
                fault.temperature = Kelvin{state_[i]};
                state_[i] = config_.ambient.raw();
            }
        }
        warn("ThermalNetwork: %s", buf);
        faults.push_back(fault);
    }

    // Physical ceiling: clamp and report every node above it.
    if (config_.temperature_ceiling.raw() > 0.0) {
        for (size_t i = 0; i < state_.size(); ++i) {
            if (state_[i] > config_.temperature_ceiling.raw()) {
                ThermalFault fault;
                fault.kind = ThermalFault::Kind::Ceiling;
                fault.node = static_cast<unsigned>(i);
                fault.temperature = Kelvin{state_[i]};
                std::snprintf(buf, sizeof(buf),
                              "node %zu at %.1f K exceeds ceiling "
                              "%.1f K; clamped", i, state_[i],
                              config_.temperature_ceiling.raw());
                fault.message = buf;
                warn("ThermalNetwork: %s", buf);
                faults.push_back(fault);
                state_[i] = config_.temperature_ceiling.raw();
            }
        }
    }

    // Monotonic divergence: a passive RC network driven by constant
    // power can approach its steady state from above (cooling) but
    // cannot keep rising beyond it. Rising peaks above the bound for
    // several consecutive advances mean the integration is unstable;
    // clamp the wires back onto the steady-state solution.
    double max_temp = maxTemperatureRaw();
    if (config_.divergence_streak > 0 &&
        max_temp > last_max_temp_ + 1e-9) {
        std::vector<double> ss = steadyState(power_per_metre);
        double ss_max = *std::max_element(ss.begin(), ss.end());
        const double margin =
            5.0 + 1e-6 * std::fabs(ss_max); // [K]
        if (max_temp > ss_max + margin) {
            if (++rising_streak_ >= config_.divergence_streak) {
                ThermalFault fault;
                fault.kind = ThermalFault::Kind::Divergence;
                fault.temperature = Kelvin{max_temp};
                for (unsigned i = 0; i < num_wires_; ++i) {
                    if (state_[i] == max_temp)
                        fault.node = i;
                    state_[i] = std::min(state_[i], ss[i]);
                }
                std::snprintf(buf, sizeof(buf),
                              "peak %.1f K rose %u advances beyond "
                              "the %.1f K steady-state bound; clamped "
                              "to steady state", max_temp,
                              rising_streak_, ss_max);
                fault.message = buf;
                warn("ThermalNetwork: %s", buf);
                faults.push_back(fault);
                rising_streak_ = 0;
                max_temp = maxTemperatureRaw();
            }
        } else {
            rising_streak_ = 0;
        }
    } else {
        rising_streak_ = 0;
    }
    last_max_temp_ = max_temp;

    return faults;
}

std::vector<double>
ThermalNetwork::steadyState(
    const std::vector<double> &power_per_metre) const
{
    if (power_per_metre.size() != num_wires_)
        fatal("ThermalNetwork::steadyState: %zu powers for %u wires",
              power_per_metre.size(), num_wires_);

    // The conductance system G theta = b shares the Jacobian's
    // bordered-band structure (G = -C A with C the diagonal
    // capacitance matrix), so the direct solve is O(width) — cheap
    // enough for the divergence guard to call per advance.
    const bool dyn = dynamicStack();
    BandedMatrix g = dyn ? BandedMatrix::bordered(num_wires_)
                         : BandedMatrix::tridiagonal(num_wires_);
    std::vector<double> b(num_wires_ + (dyn ? 1 : 0), 0.0);

    const double g_self = 1.0 / r_self_;
    const double g_lat =
        config_.lateral_coupling ? 1.0 / r_lateral_ : 0.0;
    const double ref = dyn ? 0.0 : referenceTemperature();

    for (unsigned i = 0; i < num_wires_; ++i) {
        double diag = g_self;
        if (dyn)
            g.borderCol(i) = -g_self;
        else
            b[i] += g_self * ref;
        if (g_lat > 0.0) {
            if (i > 0) {
                diag += g_lat;
                g.lower(i - 1) = -g_lat;   // a(i, i-1)
            }
            if (i + 1 < num_wires_) {
                diag += g_lat;
                g.upper(i) = -g_lat;       // a(i, i+1)
            }
        }
        g.diag(i) = diag;
        b[i] += power_per_metre[i];
    }

    if (dyn) {
        const double g_stack = 1.0 / config_.stack_resistance.raw();
        for (unsigned i = 0; i < num_wires_; ++i)
            g.borderRow(i) = -g_self;
        g.corner() =
            g_stack + static_cast<double>(num_wires_) * g_self;
        b[num_wires_] = g_stack * config_.ambient.raw() + p_lower_;
    }

    BandedFactorization factor(std::move(g));
    std::vector<double> solution = factor.solve(b);
    solution.resize(num_wires_);
    return solution;
}

} // namespace nanobus
