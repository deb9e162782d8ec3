/**
 * @file
 * Modal path of ThermalNetwork: solver selection, the exact update
 * against the closed-form 1-wire + stack solution and against the
 * Eqs 3-4 derivative, one interval against two halves,
 * modal-vs-RK4-vs-steadyState equivalence up to 4096 wires, the
 * advanceChecked fault containment on the modal path, and the
 * stability-bound/reset contracts.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "thermal/network.hh"
#include "util/faultinject.hh"

namespace nanobus {
namespace {

const double ambient = 318.15;

ThermalConfig
solverConfig(ThermalSolver solver, StackMode stack = StackMode::None)
{
    ThermalConfig config;
    config.stack_mode = stack;
    config.solver = solver;
    if (stack != StackMode::None)
        config.delta_theta = Kelvin{12.0};
    return config;
}

TEST(ThermalSolverSelect, NamesRoundTrip)
{
    EXPECT_STREQ(thermalSolverName(ThermalSolver::Rk4), "rk4");
    EXPECT_STREQ(thermalSolverName(ThermalSolver::Modal), "modal");
    for (ThermalSolver s : {ThermalSolver::Rk4, ThermalSolver::Modal})
        EXPECT_EQ(parseThermalSolver(thermalSolverName(s)), s);
    // The retired methods' names are usage errors now.
    for (const char *retired : {"be", "cn", "backward-euler",
                                "trapezoidal", "euler"})
        EXPECT_FALSE(parseThermalSolver(retired).has_value())
            << retired;
    EXPECT_EQ(ThermalConfig().solver, ThermalSolver::Modal);
    // Checkpoint tags: TR-BDF2's 1 is never reused.
    EXPECT_EQ(static_cast<int>(ThermalSolver::Rk4), 0);
    EXPECT_EQ(static_cast<int>(ThermalSolver::Modal), 2);
}

TEST(ThermalSolverSelect, ConfigSelectsSolver)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalNetwork rk4(tech, 4, solverConfig(ThermalSolver::Rk4));
    ThermalNetwork modal(tech, 4, solverConfig(ThermalSolver::Modal));
    EXPECT_EQ(rk4.solver(), ThermalSolver::Rk4);
    EXPECT_EQ(modal.solver(), ThermalSolver::Modal);
}

// One wire over a Dynamic stack is a 2-node linear system with a
// closed-form solution: with rises y = (θ − θ_0, θ_s − θ_0),
//   C   dy_0/dt = P − g (y_0 − y_1)
//   C_s dy_1/dt = p_lower + g (y_0 − y_1) − g_stack y_1,
// y(t) = y* + α e^(λ_s t) v_s + β e^(λ_f t) v_f from the slow and
// fast eigenpairs of the 2×2 matrix, evaluated here in long double.
// The modal update must match it to 1e-12 relative from a nanosecond
// to ten seconds — its wire time constant is microseconds, its stack
// one 20 ms. RK4, the oracle, must match it too over the horizons it
// can afford.
TEST(ThermalSolverSelect, SolversMatchClosedFormWireAndStack)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    const ThermalConfig config =
        solverConfig(ThermalSolver::Modal, StackMode::Dynamic);
    const double power = 0.8;  // [W/m]
    const double y0[2] = {3.0, 1.5};  // skewed start [K above ambient]

    using Real = long double;
    const WireThermalParams params(tech);
    const Real g = 1.0L / params.selfResistance().raw();
    const Real c = params.capacitance().raw();
    const Real g_stack = 1.0L / config.stack_resistance.raw();
    const Real c_stack = config.stack_time_constant.raw() /
        config.stack_resistance.raw();
    const Real p_lower = config.delta_theta.raw() /
        config.stack_resistance.raw();

    const Real m00 = -g / c, m01 = g / c;
    const Real m10 = g / c_stack, m11 = -(g + g_stack) / c_stack;
    const Real ss1 = (power + p_lower) / g_stack;
    const Real ss0 = ss1 + power / g;
    const Real tr = m00 + m11, det = m00 * m11 - m01 * m10;
    const Real fast = 0.5L * (tr - std::sqrt(tr * tr - 4.0L * det));
    const Real slow = det / fast;
    // Eigenvector (m01, λ − m00) for each eigenvalue λ.
    const Real d0 = y0[0] - ss0, d1 = y0[1] - ss1;
    const Real vs = slow - m00, vf = fast - m00;
    const Real beta = (d1 - d0 * vs / m01) / (vf - vs);
    const Real alpha = (d0 - beta * m01) / m01;
    auto exact = [&](double t, int node) {
        const Real es = std::exp(slow * t), ef = std::exp(fast * t);
        const Real rise = node == 0
            ? ss0 + alpha * es * m01 + beta * ef * m01
            : ss1 + alpha * es * vs + beta * ef * vf;
        return static_cast<double>(ambient + rise);
    };

    for (double horizon : {1e-9, 1e-7, 1e-6, 1e-5, 1e-4, 1e-3, 1e-2,
                           0.1, 1.0, 10.0}) {
        for (ThermalSolver solver :
             {ThermalSolver::Modal, ThermalSolver::Rk4}) {
            if (solver == ThermalSolver::Rk4 && horizon > 1e-4)
                continue;  // 0.2 τ_min steps: ~1e5 per millisecond
            SCOPED_TRACE(thermalSolverName(solver));
            SCOPED_TRACE(horizon);
            ThermalConfig cfg = config;
            cfg.solver = solver;
            ThermalNetwork net(tech, 1, cfg);
            ThermalNetwork::SnapshotState start;
            start.nodes = {ambient + y0[0], ambient + y0[1]};
            ASSERT_TRUE(net.restoreSnapshotState(start).ok());
            net.advance({power}, Seconds{horizon});
            const double tol =
                solver == ThermalSolver::Modal ? 1e-12 : 1e-9;
            EXPECT_NEAR(net.temperature(0).raw(), exact(horizon, 0),
                        tol * exact(horizon, 0));
            EXPECT_NEAR(net.stackTemperature().raw(),
                        exact(horizon, 1), tol * exact(horizon, 1));
        }
    }
}

// A tiny modal advance from a deliberately *skewed* state (every node
// at a different temperature, so heat flows through every coupling)
// must move each node at the rate Eqs 3-4 give — evaluated here from
// the published parameters, not from the network's internals. A
// wrong eigenvalue, mode target or stack coupling shows up at first
// order.
TEST(ThermalSolverSelect, ModalAdvanceMatchesDerivativeFromSkewedState)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    const unsigned width = 6;
    const std::vector<double> power = {0.2, 0.0, 0.9, 0.4, 0.0, 0.6};
    for (StackMode mode : {StackMode::None, StackMode::Static,
                           StackMode::Dynamic}) {
        SCOPED_TRACE(static_cast<int>(mode));
        const ThermalConfig config =
            solverConfig(ThermalSolver::Modal, mode);
        ThermalNetwork net(tech, width, config);
        const bool dynamic = mode == StackMode::Dynamic;

        std::vector<double> theta(width + (dynamic ? 1 : 0));
        for (size_t i = 0; i < theta.size(); ++i)
            theta[i] = ambient + 3.0 * static_cast<double>(i % 4) + 1.0;
        ThermalNetwork::SnapshotState skew;
        skew.nodes = theta;
        ASSERT_TRUE(net.restoreSnapshotState(skew).ok());

        const WireThermalParams &p = net.wireParams();
        const double r_self = p.selfResistance().raw();
        const double r_lat = p.lateralResistance().raw();
        const double c = p.capacitance().raw();
        const double ref = mode == StackMode::None ? ambient
            : mode == StackMode::Static
                ? ambient + config.delta_theta.raw()
                : theta[width];
        std::vector<double> rate(theta.size());
        double into_stack = 0.0;
        for (unsigned i = 0; i < width; ++i) {
            double out = (theta[i] - ref) / r_self;
            into_stack += out;
            if (i > 0)
                out += (theta[i] - theta[i - 1]) / r_lat;
            if (i + 1 < width)
                out += (theta[i] - theta[i + 1]) / r_lat;
            rate[i] = (power[i] - out) / c;
        }
        if (dynamic) {
            const double r_stack = config.stack_resistance.raw();
            const double c_stack =
                config.stack_time_constant.raw() / r_stack;
            rate[width] = (config.delta_theta.raw() / r_stack +
                           into_stack -
                           (theta[width] - ambient) / r_stack) /
                c_stack;
        }

        // h = 1e-5 of the wire time constant: the forward difference
        // is then exact to ~1e-5 of the fastest mode's rate.
        const double h = 1e-5 * p.timeConstant().raw();
        net.advance(power, Seconds{h});
        double max_rate = 0.0;
        for (double r : rate)
            max_rate = std::max(max_rate, std::fabs(r));
        for (unsigned i = 0; i < width; ++i) {
            EXPECT_NEAR((net.temperature(i).raw() - theta[i]) / h,
                        rate[i], 1e-4 * max_rate)
                << "wire " << i;
        }
        if (dynamic) {
            EXPECT_NEAR((net.stackTemperature().raw() - theta[width]) /
                            h,
                        rate[width], 1e-4 * max_rate);
        }
    }
}

/** Per-wire power [W/m]: {0.1, 0.6, 0.3, 0.9, 0.2} repeated across
 *  the bus, so no two neighbouring wires carry the same load. */
std::vector<double>
patternPower(unsigned width)
{
    const double pattern[] = {0.1, 0.6, 0.3, 0.9, 0.2};
    std::vector<double> power(width);
    for (unsigned i = 0; i < width; ++i)
        power[i] = pattern[i % 5];
    return power;
}

// Equivalence gate: the RK4 oracle and the modal update land on the
// direct per-mode solve (steadyState). RK4 runs 5 wires for 20 stack
// time constants, to 1e-6 relative. The modal update runs 5 wires,
// the 32-wire data bus, the 33-wire BusInvert bus (3·11, a mixed-radix
// transform) and 4096 wires for 50 stack time constants. The slowest
// mode at 4096 wires is 1% slower than the stack, so the physics' own
// residual transient is e^−49, far below the 1e-12 gate: the gate
// sees solver error alone.
TEST(ThermalSolverSelect, ImplicitSteadyStateMatchesRk4AndDirect)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    struct Case
    {
        ThermalSolver solver;
        unsigned width;
        double stack_taus;  // Dynamic-mode horizon
        double tolerance;   // relative to the direct solve
    };
    const Case cases[] = {
        {ThermalSolver::Rk4, 5, 20.0, 1e-6},
        {ThermalSolver::Modal, 5, 50.0, 1e-12},
        {ThermalSolver::Modal, 32, 50.0, 1e-12},
        {ThermalSolver::Modal, 33, 50.0, 1e-12},
        {ThermalSolver::Modal, 4096, 50.0, 1e-12},
    };
    for (StackMode mode : {StackMode::None, StackMode::Dynamic}) {
        for (const Case &c : cases) {
            SCOPED_TRACE(testing::Message()
                         << thermalSolverName(c.solver) << " width="
                         << c.width << " mode="
                         << static_cast<int>(mode));
            const ThermalConfig config = solverConfig(c.solver, mode);
            const std::vector<double> power = patternPower(c.width);
            // Without a stack node the slowest mode is the wire's
            // microsecond one, which 1 ms saturates.
            const double horizon = mode == StackMode::Dynamic
                ? c.stack_taus * config.stack_time_constant.raw()
                : 1e-3;
            const unsigned intervals = 32;

            ThermalNetwork net(tech, c.width, config);
            net.reset(Kelvin{ambient});
            for (unsigned k = 0; k < intervals; ++k)
                net.advance(power,
                            Seconds{horizon /
                                    static_cast<double>(intervals)});
            const std::vector<double> ss = net.steadyState(power);
            for (unsigned i = 0; i < c.width; ++i)
                ASSERT_NEAR(net.temperature(i).raw(), ss[i],
                            c.tolerance * ss[i])
                    << "wire " << i;
        }
    }
}

// The modal update is exact per interval, so one advance of h equals
// two advances of h/2 up to rounding, whatever h is. That checks the
// solver alone: unlike a steady-state or RK4 comparison, no physical
// residual or oracle truncation error can hide a wrong decay factor.
// The start is skewed (a ramp plus a period-4 ripple) and the power
// is patterned, so every low mode and the stack pair carry weight.
// h spans a hundredth of the wire time constant (the fast modes
// still alive), one wire time constant and one stack time constant.
TEST(ThermalSolverSelect, ModalOneIntervalEqualsTwoHalves)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (StackMode mode : {StackMode::None, StackMode::Static,
                           StackMode::Dynamic}) {
        for (unsigned width : {32u, 33u, 4096u}) {
            const ThermalConfig config =
                solverConfig(ThermalSolver::Modal, mode);
            const std::vector<double> power = patternPower(width);
            ThermalNetwork::SnapshotState start;
            for (unsigned i = 0; i < width; ++i)
                start.nodes.push_back(
                    ambient + 2.0 +
                    10.0 * static_cast<double>(i) / (width - 1) +
                    3.0 * static_cast<double>(i % 4));
            if (mode == StackMode::Dynamic)
                start.nodes.push_back(ambient + 7.0);

            const double tau_wire =
                WireThermalParams(tech).timeConstant().raw();
            for (double h : {tau_wire / 100.0, tau_wire,
                             config.stack_time_constant.raw()}) {
                SCOPED_TRACE(testing::Message()
                             << "width=" << width << " mode="
                             << static_cast<int>(mode) << " h=" << h);
                ThermalNetwork whole(tech, width, config);
                ThermalNetwork halves(tech, width, config);
                ASSERT_TRUE(whole.restoreSnapshotState(start).ok());
                ASSERT_TRUE(halves.restoreSnapshotState(start).ok());
                whole.advance(power, Seconds{h});
                halves.advance(power, Seconds{h / 2.0});
                halves.advance(power, Seconds{h / 2.0});

                // Rounding is a few ulps of the absolute temperature
                // (~6e-14 K); 1e-14 relative leaves a 50x margin.
                const std::vector<double> a =
                    whole.snapshotState().nodes;
                const std::vector<double> b =
                    halves.snapshotState().nodes;
                ASSERT_EQ(a.size(), b.size());
                for (size_t i = 0; i < a.size(); ++i)
                    ASSERT_NEAR(b[i], a[i], 1e-14 * a[i])
                        << "node " << i;
            }
        }
    }
}

// Transient (not just steady-state) agreement: over one wire time
// constant from a cold start, the exact modal update and the RK4
// oracle agree to RK4's own truncation error, on 3 wires and on the
// 33-wire BusInvert bus.
TEST(ThermalSolverSelect, ImplicitTransientTracksRk4)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    const double tau = WireThermalParams(tech).timeConstant().raw();
    for (unsigned width : {3u, 33u}) {
        SCOPED_TRACE(testing::Message() << "width=" << width);
        // Every third wire driven: {0, 1, 0} on 3 wires.
        std::vector<double> power(width);
        for (unsigned i = 0; i < width; ++i)
            power[i] = i % 3 == 1 ? 1.0 : 0.0;

        auto run = [&](ThermalSolver s) {
            ThermalNetwork net(tech, width, solverConfig(s));
            net.reset(Kelvin{ambient});
            net.advance(power, Seconds{tau});  // mid-transient
            return net.temperatures();
        };

        std::vector<double> rk4 = run(ThermalSolver::Rk4);
        std::vector<double> modal = run(ThermalSolver::Modal);
        const double rise = rk4[1] - ambient;
        ASSERT_GT(rise, 0.0);
        for (unsigned i = 0; i < width; ++i)
            EXPECT_NEAR(modal[i], rk4[i], 1e-6 * rise) << "wire " << i;
    }
}

// A poisoned modal update (the IntegrationStep fault site) is never
// committed: exactly one NonFinite fault, the pre-interval state
// kept, and the next advance clean.
TEST(ThermalSolverSelect, ImplicitAdvanceCheckedContainsSolveFault)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (StackMode mode : {StackMode::None, StackMode::Dynamic}) {
        SCOPED_TRACE(static_cast<int>(mode));
        ThermalNetwork net(tech, 3,
                           solverConfig(ThermalSolver::Modal, mode));
        net.reset(Kelvin{ambient});
        const ThermalNetwork::SnapshotState before = net.snapshotState();

        FaultInjector::instance().reset();
        FaultInjector::instance().armCallFault(
            FaultSite::IntegrationStep, 1);
        std::vector<ThermalFault> faults =
            net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6});
        FaultInjector::instance().reset();

        ASSERT_EQ(faults.size(), 1u);
        EXPECT_EQ(faults[0].kind, ThermalFault::Kind::NonFinite);
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_TRUE(std::isfinite(net.temperature(i).raw()));
        EXPECT_EQ(net.snapshotState().nodes, before.nodes);
        EXPECT_TRUE(
            net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6}).empty());
        EXPECT_GT(net.maxTemperature().raw(), ambient);
    }
}

// A poisoned update on the interval that rebuilds the cached decay
// factors (a new interval length) leaves neither the state nor the
// cache corrupted: the retry matches a never-faulted twin bit for bit.
TEST(ThermalSolverSelect, ImplicitAdvanceCheckedContainsFactorFault)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    const std::vector<double> power{0.1, 0.2, 0.3};
    for (StackMode mode : {StackMode::None, StackMode::Dynamic}) {
        SCOPED_TRACE(static_cast<int>(mode));
        const ThermalConfig config =
            solverConfig(ThermalSolver::Modal, mode);
        ThermalNetwork net(tech, 3, config);
        ThermalNetwork twin(tech, 3, config);
        for (ThermalNetwork *n : {&net, &twin}) {
            n->reset(Kelvin{ambient});
            ASSERT_TRUE(n->advanceChecked(power, Seconds{1e-6}).empty());
        }

        FaultInjector::instance().reset();
        FaultInjector::instance().armCallFault(
            FaultSite::IntegrationStep, 1);
        std::vector<ThermalFault> faults =
            net.advanceChecked(power, Seconds{2e-6});
        FaultInjector::instance().reset();

        ASSERT_EQ(faults.size(), 1u);
        EXPECT_EQ(faults[0].kind, ThermalFault::Kind::NonFinite);
        EXPECT_EQ(net.snapshotState().nodes, twin.snapshotState().nodes);
        EXPECT_TRUE(net.advanceChecked(power, Seconds{2e-6}).empty());
        EXPECT_TRUE(twin.advanceChecked(power, Seconds{2e-6}).empty());
        EXPECT_EQ(net.snapshotState().nodes, twin.snapshotState().nodes);
    }
}

// Satellite (b): the stability-bound contract. The derived step must
// sit inside RK4's stability interval, and reset() revalidates it.
TEST(ThermalSolverSelect, DerivedStepRespectsStabilityBound)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config =
        solverConfig(ThermalSolver::Rk4, StackMode::Dynamic);
    ThermalNetwork net(tech, 8, config);
    const double dt = net.stepWidth().raw();
    ASSERT_GT(dt, 0.0);

    // Recompute the stiffest time constant independently from the
    // published parameters (ThermalConfig::max_dt documentation) and
    // check both the documented 0.2 tau_min derivation and the
    // Gershgorin stability requirement 2 dt / tau_min < 2.785.
    const WireThermalParams &p = net.wireParams();
    const double g_wire = 1.0 / p.selfResistance().raw() +
        2.0 / p.lateralResistance().raw();
    double tau_min = p.capacitance().raw() / g_wire;
    const double c_stack = (config.stack_time_constant /
                            config.stack_resistance).raw();
    const double g_stack = 1.0 / config.stack_resistance.raw() +
        8.0 / p.selfResistance().raw();
    tau_min = std::min(tau_min, c_stack / g_stack);

    EXPECT_NEAR(dt, 0.2 * tau_min, 1e-12 * tau_min);
    EXPECT_LT(2.0 * dt / tau_min, 2.785);

    // reset() revalidates the derivation (a contract violation would
    // panic in checked builds); the step must not drift.
    net.reset(Kelvin{ambient});
    EXPECT_DOUBLE_EQ(net.stepWidth().raw(), dt);
}

TEST(ThermalSolverSelect, UserStepCeilingIsTakenAsIs)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = solverConfig(ThermalSolver::Rk4);
    config.max_dt = Seconds{1e-9};
    ThermalNetwork net(tech, 2, config);
    EXPECT_DOUBLE_EQ(net.stepWidth().raw(), 1e-9);
    net.reset(Kelvin{ambient});  // no derived-step revalidation
    EXPECT_DOUBLE_EQ(net.stepWidth().raw(), 1e-9);
}

TEST(ThermalSolverSelect, SnapshotRoundTripsOnImplicitPath)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config =
        solverConfig(ThermalSolver::Modal, StackMode::Dynamic);
    ThermalNetwork a(tech, 4, config);
    a.reset(Kelvin{ambient});
    std::vector<double> power = {0.3, 0.1, 0.7, 0.2};
    EXPECT_TRUE(a.advanceChecked(power, Seconds{1e-4}).empty());

    ThermalNetwork b(tech, 4, config);
    ASSERT_TRUE(b.restoreSnapshotState(a.snapshotState()).ok());

    // Bit-identical continuation: same advances, same bits.
    for (int k = 0; k < 3; ++k) {
        EXPECT_TRUE(a.advanceChecked(power, Seconds{1e-4}).empty());
        EXPECT_TRUE(b.advanceChecked(power, Seconds{1e-4}).empty());
    }
    for (unsigned i = 0; i < 4; ++i)
        EXPECT_EQ(a.temperature(i).raw(), b.temperature(i).raw())
            << "wire " << i;
    EXPECT_EQ(a.stackTemperature().raw(), b.stackTemperature().raw());
}

} // anonymous namespace
} // namespace nanobus
