#include "util/ode.hh"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/faultinject.hh"
#include "util/logging.hh"

namespace nanobus {

namespace {

bool
allFinite(const std::vector<double> &v)
{
    for (double x : v) {
        if (!std::isfinite(x))
            return false;
    }
    return true;
}

} // anonymous namespace

Rk4Solver::Rk4Solver(size_t dimension)
    : k1_(dimension), k2_(dimension), k3_(dimension), k4_(dimension),
      scratch_(dimension)
{
    if (dimension == 0)
        fatal("Rk4Solver: dimension must be positive");
}

void
Rk4Solver::step(const Derivative &f, double t, double dt,
                std::vector<double> &y)
{
    const size_t n = dimension();
    if (y.size() != n)
        panic("Rk4Solver::step: state size %zu != dimension %zu",
              y.size(), n);

    f(t, y, k1_);

    for (size_t i = 0; i < n; ++i)
        scratch_[i] = y[i] + 0.5 * dt * k1_[i];
    f(t + 0.5 * dt, scratch_, k2_);

    for (size_t i = 0; i < n; ++i)
        scratch_[i] = y[i] + 0.5 * dt * k2_[i];
    f(t + 0.5 * dt, scratch_, k3_);

    for (size_t i = 0; i < n; ++i)
        scratch_[i] = y[i] + dt * k3_[i];
    f(t + dt, scratch_, k4_);

    for (size_t i = 0; i < n; ++i) {
        y[i] += dt / 6.0 *
            (k1_[i] + 2.0 * k2_[i] + 2.0 * k3_[i] + k4_[i]);
    }
}

size_t
Rk4Solver::integrate(const Derivative &f, double t, double duration,
                     double max_dt, std::vector<double> &y)
{
    if (duration < 0.0)
        panic("Rk4Solver::integrate: negative duration %g", duration);
    if (duration == 0.0)
        return 0;
    if (max_dt <= 0.0)
        panic("Rk4Solver::integrate: max_dt must be positive");

    auto steps = static_cast<size_t>(std::ceil(duration / max_dt));
    if (steps == 0)
        steps = 1;
    double dt = duration / static_cast<double>(steps);
    for (size_t i = 0; i < steps; ++i)
        step(f, t + dt * static_cast<double>(i), dt, y);
    return steps;
}

IntegrationReport
Rk4Solver::integrateChecked(const Derivative &f, double t,
                            double duration, double max_dt,
                            std::vector<double> &y, size_t max_retries)
{
    IntegrationReport report;
    if (y.size() != dimension()) {
        report.ok = false;
        report.error = Error{
            ErrorCode::InvalidArgument,
            "state size " + std::to_string(y.size()) +
                " != dimension " + std::to_string(dimension())};
        return report;
    }
    if (duration < 0.0 || !std::isfinite(duration) ||
        max_dt <= 0.0 || !std::isfinite(max_dt)) {
        report.ok = false;
        report.error = Error{ErrorCode::InvalidArgument,
                             "duration must be >= 0 and max_dt > 0"};
        return report;
    }
    if (!allFinite(y)) {
        report.ok = false;
        report.error = Error{ErrorCode::NonFinite,
                             "initial state has a non-finite entry"};
        return report;
    }
    if (duration == 0.0)
        return report;

    auto steps = static_cast<size_t>(std::ceil(duration / max_dt));
    if (steps == 0)
        steps = 1;
    double dt = duration / static_cast<double>(steps);

    const double t_end = t + duration;
    double t_cur = t;
    while (t_cur < t_end) {
        double step_dt = std::min(dt, t_end - t_cur);
        backup_ = y;
        step(f, t_cur, step_dt, y);
        if (FaultInjector::active() &&
            FaultInjector::instance().fireCallFault(
                FaultSite::IntegrationStep))
            y[0] = std::numeric_limits<double>::quiet_NaN();
        if (allFinite(y)) {
            t_cur += step_dt;
            ++report.steps;
            continue;
        }
        // Roll back and retry with a narrower step: overshoot from a
        // step wider than the fastest time constant is the usual way
        // an explicit method blows up.
        y = backup_;
        if (report.retries >= max_retries) {
            report.ok = false;
            report.error = Error{
                ErrorCode::NonFinite,
                "state non-finite after " +
                    std::to_string(report.retries) +
                    " step halvings at t=" + std::to_string(t_cur)};
            break;
        }
        ++report.retries;
        dt *= 0.5;
    }
    report.completed_time = t_cur - t;
    return report;
}

} // namespace nanobus
