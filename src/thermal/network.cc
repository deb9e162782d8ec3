#include "thermal/network.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <numbers>
#include <numeric>

#include "util/contracts.hh"
#include "util/faultinject.hh"
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
      case ThermalSolver::Modal:  return "modal";
    }
    return "unknown";
}

std::optional<ThermalSolver>
parseThermalSolver(const std::string &name)
{
    if (name == "rk4")
        return ThermalSolver::Rk4;
    if (name == "modal")
        return ThermalSolver::Modal;
    return std::nullopt;
}

ThermalNetwork::ThermalNetwork(const TechnologyNode &tech,
                               unsigned num_wires,
                               const ThermalConfig &config)
    : num_wires_(num_wires), config_(config), params_(tech),
      solver_(num_wires +
              (config.stack_mode == StackMode::Dynamic ? 1 : 0)),
      dct_(num_wires)
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

    // Mode k of the Neumann path Laplacian has eigenvalue
    // 2 − 2cos(πk/N) = 4 sin²(πk/2N); the sine form keeps the slow
    // modes' small eigenvalues accurate.
    const double g_self = 1.0 / r_self_;
    const double g_lat =
        config_.lateral_coupling ? 1.0 / r_lateral_ : 0.0;
    mode_conductance_.resize(num_wires_);
    for (unsigned k = 0; k < num_wires_; ++k) {
        const double s = std::sin(std::numbers::pi * k /
                                  (2.0 * num_wires_));
        mode_conductance_[k] = g_self + g_lat * 4.0 * s * s;
    }
    decay_.resize(num_wires_);
    rises_.resize(num_wires_);
    modes_.resize(num_wires_);
    power_modes_.resize(num_wires_);
    target_.resize(num_wires_);

    state_.assign(solver_.dimension(), config_.ambient.raw());
    next_.resize(state_.size());
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

IntegrationReport
ThermalNetwork::integrateInterval(const std::vector<double> &power,
                                  double duration)
{
    if (config_.solver == ThermalSolver::Modal)
        return integrateModal(power, duration);
    auto deriv = [this, &power](double, const std::vector<double> &y,
                                std::vector<double> &dydt) {
        derivative(y, dydt, power);
    };
    return solver_.integrateChecked(deriv, 0.0, duration, dt_, state_,
                                    config_.max_integration_retries);
}

void
ThermalNetwork::prepareDecay(double duration)
{
    decay_duration_ = duration;
    for (unsigned k = 0; k < num_wires_; ++k)
        decay_[k] = std::exp(-mode_conductance_[k] / c_wire_ * duration);
    if (!dynamicStack())
        return;

    // (X_0, stack) obeys d/dt y = M y + f with
    //   M = [[−g/C, g√N/C], [g√N/C_s, −(N g + g_stack)/C_s]]
    // (g = g_self, X_0 = √N · mean wire rise). Scaling by √C and √C_s
    // makes it symmetric, S = [[a, b], [b, d]]; one Jacobi rotation
    // diagonalizes S stably, and e^(Mh) = D^(−1/2) e^(Sh) D^(1/2)
    // with D = diag(C, C_s).
    const double g = 1.0 / r_self_;
    const double n = static_cast<double>(num_wires_);
    const double g_stack = 1.0 / config_.stack_resistance.raw();
    const double a = -g / c_wire_;
    const double d = -(n * g + g_stack) / c_stack_;
    const double b = g * std::sqrt(n / (c_wire_ * c_stack_));
    const double tau = (d - a) / (2.0 * b);
    const double t = (tau >= 0.0 ? 1.0 : -1.0) /
        (std::fabs(tau) + std::hypot(1.0, tau));
    const double c = 1.0 / std::hypot(1.0, t);
    const double s = t * c;
    const double l1 = a - t * b;  // eigenvector (c, −s)
    const double l2 = d + t * b;  // eigenvector (s, c)
    const double e1 = std::exp(l1 * duration);
    const double e2 = std::exp(l2 * duration);
    // e2 − e1 from the larger exponential, without cancellation.
    const double gap = std::fabs(l2 - l1) * duration;
    const double diff = l2 >= l1 ? -e2 * std::expm1(-gap)
                                 : e1 * std::expm1(-gap);
    const double off = c * s * diff;
    const double scale = std::sqrt(c_stack_ / c_wire_);
    mean_stack_decay_[0][0] = c * c * e1 + s * s * e2;
    mean_stack_decay_[0][1] = off * scale;
    mean_stack_decay_[1][0] = off / scale;
    mean_stack_decay_[1][1] = s * s * e1 + c * c * e2;
}

double
ThermalNetwork::modalTargets(std::span<const double> q,
                             std::span<double> target) const
{
    for (unsigned k = 0; k < num_wires_; ++k)
        target[k] = q[k] / mode_conductance_[k];
    // The reference enters only the mean mode, X_0 = √N · mean rise.
    const double root_n = std::sqrt(static_cast<double>(num_wires_));
    if (!dynamicStack()) {
        target[0] += root_n *
            (referenceTemperature() - config_.ambient.raw());
        return 0.0;
    }
    // Every watt, the lower layers' p_lower and the bus's own
    // Σ P = √N Q_0, leaves through the stack resistance.
    const double stack =
        (p_lower_ + root_n * q[0]) * config_.stack_resistance.raw();
    target[0] += root_n * stack;
    return stack;
}

std::vector<double>
ThermalNetwork::wireTemperatures(std::span<const double> target,
                                 Dct::Workspace &work) const
{
    std::vector<double> theta(num_wires_);
    dct_.inverse(target, theta, work);
    for (double &t : theta)
        t += config_.ambient.raw();
    return theta;
}

IntegrationReport
ThermalNetwork::integrateModal(const std::vector<double> &power,
                               double duration)
{
    if (duration != decay_duration_)
        prepareDecay(duration);

    const double ambient = config_.ambient.raw();
    for (unsigned i = 0; i < num_wires_; ++i)
        rises_[i] = state_[i] - ambient;
    dct_.forward(rises_, power, modes_, power_modes_, dct_work_);
    const double stack_target = modalTargets(power_modes_, target_);

    for (unsigned k = dynamicStack() ? 1 : 0; k < num_wires_; ++k)
        modes_[k] = target_[k] + decay_[k] * (modes_[k] - target_[k]);
    double stack = 0.0;
    if (dynamicStack()) {
        const double mean_dev = modes_[0] - target_[0];
        const double stack_dev = state_.back() - ambient - stack_target;
        const auto &e = mean_stack_decay_;
        modes_[0] = target_[0] + e[0][0] * mean_dev + e[0][1] * stack_dev;
        stack = stack_target + e[1][0] * mean_dev + e[1][1] * stack_dev;
    }

    dct_.inverse(modes_, std::span<double>(next_).first(num_wires_),
                 dct_work_);
    for (unsigned i = 0; i < num_wires_; ++i)
        next_[i] += ambient;
    if (dynamicStack())
        next_.back() = ambient + stack;
    if (FaultInjector::active() &&
        FaultInjector::instance().fireCallFault(
            FaultSite::IntegrationStep))
        next_[0] = std::numeric_limits<double>::quiet_NaN();

    IntegrationReport report;
    if (!std::all_of(next_.begin(), next_.end(),
                     [](double t) { return std::isfinite(t); })) {
        report.ok = false;
        report.error = Error{ErrorCode::NonFinite,
                             "modal update produced a non-finite "
                             "state; the interval was not committed"};
        return report;
    }
    state_.swap(next_);
    report.steps = 1;
    report.completed_time = duration;
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
        // Modal already holds this power's steady modes: one inverse
        // transform instead of a fresh forward one.
        std::vector<double> ss =
            config_.solver == ThermalSolver::Modal
                ? wireTemperatures(target_, dct_work_)
                : steadyState(power_per_metre);
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

    Dct::Workspace work;
    std::vector<double> q(num_wires_), target(num_wires_);
    dct_.forward(power_per_metre, q, work);
    modalTargets(q, target);
    return wireTemperatures(target, work);
}

} // namespace nanobus
