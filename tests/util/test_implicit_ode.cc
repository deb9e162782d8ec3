/**
 * @file
 * TrBdf2Solver tests: the analytic 2-node RC network pins both
 * integrator families (RK4, TR-BDF2) against the closed-form
 * solution, the ladder controller's error control and step
 * bookkeeping, and the failure taxonomy.
 *
 * The 2-node system is dy/dt = A y + b with
 *
 *     A = [[-a, c], [c, -a]],   a > c > 0,
 *
 * whose eigenmodes are [1, 1] (rate -(a - c)) and [1, -1] (rate
 * -(a + c)): the exact solution is available in closed form, so each
 * integrator's error — and its convergence *order* — can be measured
 * rather than eyeballed.
 *
 * With a = 3, c = 1 the error constant of one TR-BDF2 step over the
 * unit horizon is large, so the controller must genuinely halve.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "la/banded.hh"
#include "util/faultinject.hh"
#include "util/ode.hh"

namespace nanobus {
namespace {

constexpr double kA = 3.0;  // self rate [1/s]
constexpr double kC = 1.0;  // coupling rate [1/s]

/** The RC Jacobian in banded form. */
BandedMatrix
rcJacobian()
{
    BandedMatrix a = BandedMatrix::tridiagonal(2);
    a.diag(0) = -kA;
    a.diag(1) = -kA;
    a.upper(0) = kC;
    a.lower(0) = kC;
    return a;
}

/** Exact solution via the [1,1] / [1,-1] eigenmodes. */
std::vector<double>
rcExact(const std::vector<double> &y0, const std::vector<double> &b,
        double t)
{
    // Steady state solves A y + b = 0.
    const double det = kA * kA - kC * kC;
    const double ss0 = (kA * b[0] + kC * b[1]) / det;
    const double ss1 = (kC * b[0] + kA * b[1]) / det;
    const double sum0 = (y0[0] - ss0) + (y0[1] - ss1);
    const double dif0 = (y0[0] - ss0) - (y0[1] - ss1);
    const double sum = sum0 * std::exp(-(kA - kC) * t);
    const double dif = dif0 * std::exp(-(kA + kC) * t);
    return {ss0 + 0.5 * (sum + dif), ss1 + 0.5 * (sum - dif)};
}

using Solver = TrBdf2Solver<BandedFactorization>;

const std::vector<double> kForcing = {2.0, 0.5};

/** Factor the TR-BDF2 operator I - (γh/2) A for step width h. */
BandedFactorization
rcOperator(double h)
{
    const double c = Solver::kOperatorScale * h;
    BandedMatrix a = rcJacobian();
    BandedMatrix m = BandedMatrix::tridiagonal(2);
    m.diag(0) = 1.0 - c * a.diag(0);
    m.diag(1) = 1.0 - c * a.diag(1);
    m.upper(0) = -c * a.upper(0);
    m.lower(0) = -c * a.lower(0);
    return BandedFactorization(m);
}

/** Ladder integration with a per-rung factor cache, valid for one
 *  duration at a time (as in ThermalNetwork). */
struct Ladder
{
    BandedMatrix a = rcJacobian();
    std::vector<std::unique_ptr<BandedFactorization>> rungs;
    double rung_duration = 0.0;
    Solver solver{2};

    IntegrationReport run(double duration, double tolerance,
                          std::vector<double> &y)
    {
        if (duration != rung_duration) {
            rungs.clear();
            rung_duration = duration;
        }
        auto factor_for = [&](unsigned rung,
                              Error &) -> const BandedFactorization * {
            if (rung >= rungs.size())
                rungs.resize(rung + 1);
            if (!rungs[rung])
                rungs[rung] = std::make_unique<BandedFactorization>(
                    rcOperator(std::ldexp(duration,
                                          -static_cast<int>(rung))));
            return rungs[rung].get();
        };
        auto apply = [this](const std::vector<double> &x,
                            std::vector<double> &ax) {
            a.multiply(x, ax);
        };
        return solver.integrate(factor_for, apply, kForcing, duration,
                                tolerance, y);
    }
};

/** Max-norm error of `steps` fixed TR-BDF2 steps over [0, 1]: an
 *  infinite tolerance makes each ladder call exactly one step. */
double
integrateError(size_t steps)
{
    const double h = 1.0 / static_cast<double>(steps);
    const std::vector<double> y0 = {1.0, 0.0};
    Ladder ladder;
    std::vector<double> y = y0;
    for (size_t k = 0; k < steps; ++k) {
        IntegrationReport report = ladder.run(
            h, std::numeric_limits<double>::infinity(), y);
        EXPECT_TRUE(report.ok && report.steps == 1);
    }
    std::vector<double> exact = rcExact(y0, kForcing, 1.0);
    return std::max(std::fabs(y[0] - exact[0]),
                    std::fabs(y[1] - exact[1]));
}

TEST(ImplicitOde, Rk4MatchesAnalyticRcSolution)
{
    const double horizon = 1.0;
    std::vector<double> y = {1.0, 0.0};
    BandedMatrix a = rcJacobian();
    Rk4Solver rk4(2);
    auto deriv = [&a](double, const std::vector<double> &yy,
                      std::vector<double> &dydt) {
        a.multiply(yy, dydt);
        dydt[0] += kForcing[0];
        dydt[1] += kForcing[1];
    };
    rk4.integrate(deriv, 0.0, horizon, 1e-3, y);
    std::vector<double> exact = rcExact({1.0, 0.0}, kForcing, horizon);
    EXPECT_NEAR(y[0], exact[0], 1e-10);
    EXPECT_NEAR(y[1], exact[1], 1e-10);
}

TEST(ImplicitOde, TrBdf2ConvergesSecondOrder)
{
    const double e64 = integrateError(64);
    const double e128 = integrateError(128);
    EXPECT_LT(e64, 1e-4);
    // Halving h should quarter the error (order 2).
    EXPECT_NEAR(e64 / e128, 4.0, 0.5);
}

TEST(ImplicitOde, TrBdf2PreservesTheFixedPoint)
{
    // At the steady state A y + b = 0 TR-BDF2 is stationary for *any*
    // h — even one spanning many time constants — and its error
    // estimate is zero, so the ladder crosses any horizon in one
    // step. This is the property the thermal fast path leans on.
    const double det = kA * kA - kC * kC;
    const std::vector<double> ss = {
        (kA * kForcing[0] + kC * kForcing[1]) / det,
        (kC * kForcing[0] + kA * kForcing[1]) / det};
    Ladder ladder;
    std::vector<double> y = ss;
    IntegrationReport report = ladder.run(50.0, 1e-9, y);
    ASSERT_TRUE(report.ok);
    EXPECT_EQ(report.steps, 1u);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_NEAR(y[0], ss[0], 1e-12);
    EXPECT_NEAR(y[1], ss[1], 1e-12);
}

TEST(ImplicitOde, CheckedReportsStepsAndResidualProxy)
{
    // One unit horizon under a tight tolerance: the controller must
    // reject the full-horizon step, walk down the ladder, land
    // exactly on the horizon, and track the analytic solution.
    Ladder ladder;
    std::vector<double> y = {1.0, 0.0};
    IntegrationReport report = ladder.run(1.0, 1e-6, y);
    ASSERT_TRUE(report.ok);
    EXPECT_GT(report.retries, 0u);
    EXPECT_GT(report.steps, 8u);
    EXPECT_DOUBLE_EQ(report.completed_time, 1.0);
    // |dy/dt| at t=0 is |A y0 + b| = max(|-3+2|, |1+0.5|) = 1.5.
    EXPECT_NEAR(report.max_derivative, 1.5, 1e-12);
    std::vector<double> exact = rcExact({1.0, 0.0}, kForcing, 1.0);
    EXPECT_NEAR(y[0], exact[0], 1e-5);
    EXPECT_NEAR(y[1], exact[1], 1e-5);

    // Same inputs, same steps: the ladder restarts at rung 0 per call.
    Ladder again;
    std::vector<double> y2 = {1.0, 0.0};
    IntegrationReport repeat = again.run(1.0, 1e-6, y2);
    EXPECT_EQ(repeat.steps, report.steps);
    EXPECT_EQ(repeat.retries, report.retries);
    EXPECT_EQ(y2, y);
}

TEST(ImplicitOde, CheckedRejectsBadArguments)
{
    Ladder ladder;
    std::vector<double> wrong = {1.0};
    IntegrationReport r1 = ladder.run(0.1, 1e-6, wrong);
    EXPECT_FALSE(r1.ok);
    EXPECT_EQ(r1.error.code, ErrorCode::InvalidArgument);

    std::vector<double> y = {1.0, 0.0};
    IntegrationReport r2 = ladder.run(0.0, 1e-6, y);
    EXPECT_FALSE(r2.ok);
    EXPECT_EQ(r2.error.code, ErrorCode::InvalidArgument);

    IntegrationReport r3 = ladder.run(0.1, 0.0, y);
    EXPECT_FALSE(r3.ok);
    EXPECT_EQ(r3.error.code, ErrorCode::InvalidArgument);
}

TEST(ImplicitOde, CheckedSurfacesInjectedSolveFault)
{
    // Under a loose tolerance each call is one accepted step of
    // three solves, so the poisoned fourth solve kills the second
    // call's first stage: the error surfaces typed and the state
    // stays where the first call left it.
    Ladder ladder;
    std::vector<double> y = {1.0, 0.0};
    IntegrationReport clean = ladder.run(0.1, 1.0, y);
    ASSERT_TRUE(clean.ok);
    ASSERT_EQ(clean.steps, 1u);
    const std::vector<double> after_one = y;

    Ladder faulty;
    std::vector<double> z = {1.0, 0.0};
    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::LuSolve, 4);
    IntegrationReport report = faulty.run(0.1, 1.0, z);
    IntegrationReport second = faulty.run(0.1, 1.0, z);
    FaultInjector::instance().reset();

    EXPECT_TRUE(report.ok);
    EXPECT_FALSE(second.ok);
    EXPECT_EQ(second.error.code, ErrorCode::FaultInjected);
    EXPECT_EQ(second.steps, 0u);
    EXPECT_EQ(second.completed_time, 0.0);
    EXPECT_EQ(z, after_one);
}

} // anonymous namespace
} // namespace nanobus
