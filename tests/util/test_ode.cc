/**
 * @file
 * Unit tests for the RK4 integrator against closed-form solutions.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "util/faultinject.hh"
#include "util/ode.hh"

namespace nanobus {
namespace {

TEST(Rk4, ExponentialDecay)
{
    // dy/dt = -y, y(0) = 1 => y(t) = e^-t.
    Rk4Solver solver(1);
    std::vector<double> y = {1.0};
    auto f = [](double, const std::vector<double> &y,
                std::vector<double> &dydt) { dydt[0] = -y[0]; };
    solver.integrate(f, 0.0, 2.0, 0.01, y);
    EXPECT_NEAR(y[0], std::exp(-2.0), 1e-8);
}

TEST(Rk4, HarmonicOscillatorConservesAmplitude)
{
    // y'' = -y as a 2-state system; y(0)=1, y'(0)=0 => y(t)=cos t.
    Rk4Solver solver(2);
    std::vector<double> y = {1.0, 0.0};
    auto f = [](double, const std::vector<double> &y,
                std::vector<double> &dydt) {
        dydt[0] = y[1];
        dydt[1] = -y[0];
    };
    solver.integrate(f, 0.0, 2.0 * M_PI, 0.001, y);
    EXPECT_NEAR(y[0], 1.0, 1e-9);
    EXPECT_NEAR(y[1], 0.0, 1e-9);
}

TEST(Rk4, FourthOrderConvergence)
{
    // Halving dt should cut the error by about 2^4.
    auto f = [](double, const std::vector<double> &y,
                std::vector<double> &dydt) { dydt[0] = -3.0 * y[0]; };
    auto error_with_dt = [&](double dt) {
        Rk4Solver solver(1);
        std::vector<double> y = {1.0};
        solver.integrate(f, 0.0, 1.0, dt, y);
        return std::fabs(y[0] - std::exp(-3.0));
    };
    double e1 = error_with_dt(0.1);
    double e2 = error_with_dt(0.05);
    double ratio = e1 / e2;
    EXPECT_GT(ratio, 12.0);
    EXPECT_LT(ratio, 20.0);
}

TEST(Rk4, TimeDependentForcing)
{
    // dy/dt = t, y(0)=0 => y(T) = T^2/2.
    Rk4Solver solver(1);
    std::vector<double> y = {0.0};
    auto f = [](double t, const std::vector<double> &,
                std::vector<double> &dydt) { dydt[0] = t; };
    solver.integrate(f, 0.0, 3.0, 0.1, y);
    EXPECT_NEAR(y[0], 4.5, 1e-10);
}

TEST(Rk4, ZeroDurationIsNoop)
{
    Rk4Solver solver(1);
    std::vector<double> y = {7.0};
    auto f = [](double, const std::vector<double> &y,
                std::vector<double> &dydt) { dydt[0] = -y[0]; };
    EXPECT_EQ(solver.integrate(f, 0.0, 0.0, 0.1, y), 0u);
    EXPECT_DOUBLE_EQ(y[0], 7.0);
}

TEST(Rk4, StepCountCeil)
{
    Rk4Solver solver(1);
    std::vector<double> y = {1.0};
    auto f = [](double, const std::vector<double> &,
                std::vector<double> &dydt) { dydt[0] = 0.0; };
    // duration 1.0 with max_dt 0.3 => 4 steps of 0.25.
    EXPECT_EQ(solver.integrate(f, 0.0, 1.0, 0.3, y), 4u);
}

TEST(Rk4, CoupledRelaxationToEquilibrium)
{
    // Two nodes relaxing toward each other conserve their sum and
    // converge to the average.
    Rk4Solver solver(2);
    std::vector<double> y = {10.0, 0.0};
    auto f = [](double, const std::vector<double> &y,
                std::vector<double> &dydt) {
        dydt[0] = y[1] - y[0];
        dydt[1] = y[0] - y[1];
    };
    solver.integrate(f, 0.0, 20.0, 0.01, y);
    EXPECT_NEAR(y[0], 5.0, 1e-6);
    EXPECT_NEAR(y[1], 5.0, 1e-6);
}

TEST(Rk4Checked, MatchesUncheckedOnHealthySystem)
{
    auto decay = [](double, const std::vector<double> &y,
                    std::vector<double> &dydt) { dydt[0] = -y[0]; };
    Rk4Solver a(1), b(1);
    std::vector<double> ya = {1.0}, yb = {1.0};
    a.integrate(decay, 0.0, 2.0, 0.1, ya);
    IntegrationReport report =
        b.integrateChecked(decay, 0.0, 2.0, 0.1, yb);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.steps, 20u);
    EXPECT_EQ(report.retries, 0u);
    EXPECT_NEAR(report.completed_time, 2.0, 1e-12);
    EXPECT_NEAR(yb[0], ya[0], 1e-12);
}

TEST(Rk4Checked, RecoversFromInjectedNaN)
{
    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::IntegrationStep, 3);
    auto decay = [](double, const std::vector<double> &y,
                    std::vector<double> &dydt) { dydt[0] = -y[0]; };
    Rk4Solver solver(1);
    std::vector<double> y = {1.0};
    IntegrationReport report =
        solver.integrateChecked(decay, 0.0, 1.0, 0.1, y);
    FaultInjector::instance().reset();
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.retries, 1u);
    EXPECT_TRUE(std::isfinite(y[0]));
    EXPECT_NEAR(y[0], std::exp(-1.0), 1e-6);
    EXPECT_NEAR(report.completed_time, 1.0, 1e-12);
}

TEST(Rk4Checked, PersistentNaNExhaustsRetryBudget)
{
    auto poison = [](double, const std::vector<double> &,
                     std::vector<double> &dydt) {
        dydt[0] = std::nan("");
    };
    Rk4Solver solver(1);
    std::vector<double> y = {1.0};
    IntegrationReport report =
        solver.integrateChecked(poison, 0.0, 1.0, 0.1, y, 4);
    EXPECT_FALSE(report.ok);
    EXPECT_EQ(report.retries, 4u);
    EXPECT_EQ(report.error.code, ErrorCode::NonFinite);
    // The state was rolled back to the last finite value.
    EXPECT_DOUBLE_EQ(y[0], 1.0);
    EXPECT_EQ(report.steps, 0u);
}

TEST(Rk4Checked, RejectsBadArguments)
{
    auto zero = [](double, const std::vector<double> &,
                   std::vector<double> &dydt) { dydt[0] = 0.0; };
    Rk4Solver solver(1);
    std::vector<double> y = {1.0};

    IntegrationReport negative =
        solver.integrateChecked(zero, 0.0, -1.0, 0.1, y);
    EXPECT_FALSE(negative.ok);
    EXPECT_EQ(negative.error.code, ErrorCode::InvalidArgument);

    IntegrationReport bad_dt =
        solver.integrateChecked(zero, 0.0, 1.0, 0.0, y);
    EXPECT_FALSE(bad_dt.ok);
    EXPECT_EQ(bad_dt.error.code, ErrorCode::InvalidArgument);

    std::vector<double> wrong_size = {1.0, 2.0};
    IntegrationReport mismatch =
        solver.integrateChecked(zero, 0.0, 1.0, 0.1, wrong_size);
    EXPECT_FALSE(mismatch.ok);
    EXPECT_EQ(mismatch.error.code, ErrorCode::InvalidArgument);

    std::vector<double> poisoned = {std::nan("")};
    IntegrationReport bad_state =
        solver.integrateChecked(zero, 0.0, 1.0, 0.1, poisoned);
    EXPECT_FALSE(bad_state.ok);
    EXPECT_EQ(bad_state.error.code, ErrorCode::NonFinite);
}

TEST(Rk4Checked, ZeroDurationIsNoop)
{
    auto zero = [](double, const std::vector<double> &,
                   std::vector<double> &dydt) { dydt[0] = 0.0; };
    Rk4Solver solver(1);
    std::vector<double> y = {3.5};
    IntegrationReport report =
        solver.integrateChecked(zero, 0.0, 0.0, 0.1, y);
    EXPECT_TRUE(report.ok);
    EXPECT_EQ(report.steps, 0u);
    EXPECT_DOUBLE_EQ(y[0], 3.5);
}

} // anonymous namespace
} // namespace nanobus
