/**
 * @file
 * Implicit (TR-BDF2) path of ThermalNetwork: solver selection,
 * Jacobian assembly, TR-BDF2-vs-RK4-vs-steadyState equivalence, the
 * advanceChecked fault semantics on the implicit path, and the
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
    EXPECT_STREQ(thermalSolverName(ThermalSolver::TrBdf2), "tr-bdf2");
    for (ThermalSolver s : {ThermalSolver::Rk4, ThermalSolver::TrBdf2})
        EXPECT_EQ(parseThermalSolver(thermalSolverName(s)), s);
    EXPECT_EQ(parseThermalSolver("trbdf2"), ThermalSolver::TrBdf2);
    // The retired methods' names are usage errors now.
    for (const char *retired : {"be", "cn", "backward-euler",
                                "trapezoidal", "euler"})
        EXPECT_FALSE(parseThermalSolver(retired).has_value())
            << retired;
    EXPECT_EQ(ThermalConfig().solver, ThermalSolver::TrBdf2);
}

TEST(ThermalSolverSelect, ConfigSelectsSolver)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalNetwork rk4(tech, 4,
                       solverConfig(ThermalSolver::Rk4));
    ThermalNetwork trbdf2(tech, 4,
                          solverConfig(ThermalSolver::TrBdf2));
    EXPECT_EQ(rk4.solver(), ThermalSolver::Rk4);
    EXPECT_EQ(trbdf2.solver(), ThermalSolver::TrBdf2);
}

// The assembled Jacobian must reproduce the dynamics derivative()
// integrates. A deliberately *skewed* initial state (every node at a
// different temperature) drives heat through every coupling — a
// wrong or missing matrix entry (lateral, border row/column, corner)
// diverges the implicit path from the RK4 oracle immediately.
TEST(ThermalSolverSelect, JacobianReproducesDynamicsFromSkewedState)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (StackMode mode : {StackMode::None, StackMode::Static,
                           StackMode::Dynamic}) {
        ThermalConfig config =
            solverConfig(ThermalSolver::TrBdf2, mode);
        const unsigned width = 6;
        ThermalNetwork net(tech, width, config);
        const BandedMatrix &a = net.jacobian();
        EXPECT_EQ(a.hasBorder(), mode == StackMode::Dynamic);
        EXPECT_EQ(a.order(),
                  width + (mode == StackMode::Dynamic ? 1u : 0u));

        ThermalConfig rk = config;
        rk.solver = ThermalSolver::Rk4;
        ThermalNetwork oracle(tech, width, rk);

        ThermalNetwork::SnapshotState skew;
        skew.nodes.resize(a.order());
        for (size_t i = 0; i < skew.nodes.size(); ++i)
            skew.nodes[i] =
                ambient + 3.0 * static_cast<double>(i % 4) + 1.0;
        ASSERT_TRUE(net.restoreSnapshotState(skew).ok());
        ASSERT_TRUE(oracle.restoreSnapshotState(skew).ok());

        std::vector<double> power = {0.2, 0.0, 0.9, 0.4, 0.0, 0.6};
        const double tau =
            net.wireParams().timeConstant().raw();  // mid-transient
        net.advance(power, Seconds{tau});
        oracle.advance(power, Seconds{tau});
        for (unsigned i = 0; i < width; ++i) {
            EXPECT_NEAR(net.temperature(i).raw(),
                        oracle.temperature(i).raw(), 2e-3)
                << "mode " << static_cast<int>(mode) << " wire " << i;
        }
        if (mode == StackMode::Dynamic) {
            EXPECT_NEAR(net.stackTemperature().raw(),
                        oracle.stackTemperature().raw(), 2e-3);
        }
    }
}

// Equivalence gate (mirrored in bench/perf_thermal): TR-BDF2 lands
// on the same steady state as the RK4 oracle and as the direct
// conductance solve, within 1e-6 K relative.
TEST(ThermalSolverSelect, ImplicitSteadyStateMatchesRk4AndDirect)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    for (StackMode mode : {StackMode::None, StackMode::Dynamic}) {
        std::vector<double> power = {0.1, 0.6, 0.3, 0.9, 0.2};
        // Long enough to saturate the slowest mode (the stack node's
        // 20 ms time constant in Dynamic mode).
        const double horizon = mode == StackMode::Dynamic ? 0.4 : 1e-3;
        const unsigned intervals = 32;

        std::vector<std::vector<double>> finals;
        for (ThermalSolver s : {ThermalSolver::Rk4,
                                ThermalSolver::TrBdf2}) {
            ThermalConfig config = solverConfig(s, mode);
            ThermalNetwork net(tech, 5, config);
            net.reset(Kelvin{ambient});
            for (unsigned k = 0; k < intervals; ++k)
                net.advance(power,
                            Seconds{horizon /
                                    static_cast<double>(intervals)});
            finals.push_back(net.temperatures());
        }
        ThermalNetwork direct(tech, 5,
                              solverConfig(ThermalSolver::Rk4, mode));
        std::vector<double> ss = direct.steadyState(power);

        for (size_t s = 0; s < finals.size(); ++s) {
            for (unsigned i = 0; i < 5; ++i) {
                EXPECT_NEAR(finals[s][i], ss[i], 1e-6 * ss[i])
                    << "solver " << s << " wire " << i << " mode "
                    << static_cast<int>(mode);
            }
        }
    }
}

// Transient (not just steady-state) agreement: over one wire time
// constant from a cold start, error-controlled TR-BDF2 tracks the
// RK4 oracle to within a few step tolerances.
TEST(ThermalSolverSelect, ImplicitTransientTracksRk4)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    std::vector<double> power = {0.0, 1.0, 0.0};
    const double tau =
        ThermalNetwork(tech, 3, solverConfig(ThermalSolver::Rk4))
            .wireParams()
            .timeConstant()
            .raw();

    auto run = [&](ThermalSolver s) {
        ThermalNetwork net(tech, 3, solverConfig(s));
        net.reset(Kelvin{ambient});
        net.advance(power, Seconds{tau});  // mid-transient
        return net.temperatures();
    };

    std::vector<double> rk4 = run(ThermalSolver::Rk4);
    std::vector<double> trbdf2 = run(ThermalSolver::TrBdf2);
    const double rise = rk4[1] - ambient;
    ASSERT_GT(rise, 0.0);
    for (unsigned i = 0; i < 3; ++i) {
        EXPECT_NEAR(trbdf2[i], rk4[i],
                    10.0 * ThermalNetwork::kStepTolerance)
            << "wire " << i;
    }
}

TEST(ThermalSolverSelect, ImplicitAdvanceCheckedContainsSolveFault)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = solverConfig(ThermalSolver::TrBdf2);
    ThermalNetwork net(tech, 3, config);
    net.reset(Kelvin{ambient});

    // The second solve is the first step's BDF2 stage.
    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::LuSolve, 2);
    std::vector<ThermalFault> faults =
        net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6});
    FaultInjector::instance().reset();

    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].kind, ThermalFault::Kind::NonFinite);
    // The network is contained and stays usable.
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_TRUE(std::isfinite(net.temperature(i).raw()));
    EXPECT_TRUE(
        net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6}).empty());
}

TEST(ThermalSolverSelect, ImplicitAdvanceCheckedContainsFactorFault)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = solverConfig(ThermalSolver::TrBdf2);
    ThermalNetwork net(tech, 3, config);
    net.reset(Kelvin{ambient});

    FaultInjector::instance().reset();
    FaultInjector::instance().armCallFault(FaultSite::LuFactor, 1);
    std::vector<ThermalFault> faults =
        net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6});
    FaultInjector::instance().reset();

    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].kind, ThermalFault::Kind::NonFinite);
    // The poisoned factorization was not cached: the retry refactors.
    EXPECT_TRUE(
        net.advanceChecked({0.1, 0.2, 0.3}, Seconds{1e-6}).empty());
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
        solverConfig(ThermalSolver::TrBdf2, StackMode::Dynamic);
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
