/**
 * @file
 * Tests for the thermal-RC network (Eqs 3-4) and its integration.
 * Every transient test runs under both solvers — the RK4 oracle and
 * the exact modal default — at one shared tolerance.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "thermal/network.hh"
#include "util/faultinject.hh"
#include "util/logging.hh"

namespace nanobus {
namespace {

const double ambient = 318.15;

const ThermalSolver kSolvers[] = {ThermalSolver::Rk4,
                                  ThermalSolver::Modal};

ThermalConfig
noStack(ThermalSolver solver, bool lateral = true)
{
    ThermalConfig config;
    config.stack_mode = StackMode::None;
    config.lateral_coupling = lateral;
    config.solver = solver;
    return config;
}

TEST(ThermalNet, StaysAtAmbientWithoutPower)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        ThermalNetwork net(itrsNode(ItrsNode::Nm130), 5, noStack(solver));
        net.reset(Kelvin{ambient});
        net.advance(std::vector<double>(5, 0.0), Seconds{1e-3});
        for (unsigned i = 0; i < 5; ++i)
            EXPECT_NEAR(net.temperature(i).raw(), ambient, 1e-9);
    }
}

TEST(ThermalNet, SingleWireSteadyStateIsPR)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork net(tech, 1, noStack(solver));
        net.reset(Kelvin{ambient});
        const double p = 0.5; // W/m
        double r = net.wireParams().selfResistance().raw();
        net.advance({p}, Seconds{50e-6}); // many time constants
        EXPECT_NEAR(net.temperature(0).raw(), ambient + p * r, 1e-6);
    }
}

TEST(ThermalNet, TransientFollowsExponential)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork net(tech, 1, noStack(solver));
        net.reset(Kelvin{ambient});
        const double p = 1.0;
        double r = net.wireParams().selfResistance().raw();
        double tau = net.wireParams().timeConstant().raw();
        net.advance({p}, Seconds{tau});
        double expected = ambient + p * r * (1.0 - std::exp(-1.0));
        EXPECT_NEAR(net.temperature(0).raw(), expected, p * r * 1e-3);
    }
}

TEST(ThermalNet, SteadyStateSolveMatchesTransient)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork net(tech, 5, noStack(solver));
        net.reset(Kelvin{ambient});
        std::vector<double> power = {0.1, 0.4, 0.9, 0.2, 0.0};
        net.advance(power, Seconds{100e-6});
        std::vector<double> ss = net.steadyState(power);
        for (unsigned i = 0; i < 5; ++i)
            EXPECT_NEAR(net.temperature(i).raw(), ss[i], 1e-5) << i;
    }
}

TEST(ThermalNet, SteadyStateConservesHeat)
{
    // Energy conservation at steady state: all injected power leaves
    // through the wires' self paths to the reference temperature,
    // sum_i P_i = sum_i (theta_i - theta_ref) / R_self. The lateral
    // exchange is pairwise antisymmetric, so it must cancel in the
    // sum even though the non-uniform power makes every lateral
    // flow non-zero.
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    constexpr unsigned kWires = 8;
    const std::vector<double> power = {0.9, 0.0, 0.3, 1.2,
                                       0.05, 0.6, 0.0, 0.45};
    double total_in = 0.0;
    for (double p : power)
        total_in += p;

    for (auto [solver, mode] :
         {std::pair{ThermalSolver::Rk4, StackMode::None},
          std::pair{ThermalSolver::Rk4, StackMode::Static},
          std::pair{ThermalSolver::Modal, StackMode::None},
          std::pair{ThermalSolver::Modal, StackMode::Static}}) {
        SCOPED_TRACE(thermalSolverName(solver));
        SCOPED_TRACE(mode == StackMode::None ? "None" : "Static");
        ThermalConfig config = noStack(solver);
        config.stack_mode = mode;
        config.delta_theta = Kelvin{4.0};
        ThermalNetwork net(tech, kWires, config);
        const double r = net.wireParams().selfResistance().raw();
        const double ref = mode == StackMode::None
                               ? ambient
                               : ambient + config.delta_theta.raw();
        auto outflow = [&](const std::vector<double> &theta) {
            double total = 0.0;
            for (unsigned i = 0; i < kWires; ++i)
                total += (theta[i] - ref) / r;
            return total;
        };

        // Direct solve: exact up to rounding.
        const std::vector<double> ss = net.steadyState(power);
        EXPECT_NEAR(outflow(ss), total_in, 1e-12 * total_in);

        // Transient after 20 self time constants. Each wire sits
        // within SteadyStateSolveMatchesTransient's 1e-5 K of steady
        // state, so the outflow sum is within kWires * 1e-5 K / R.
        net.reset(Kelvin{ambient});
        const double tau = net.wireParams().timeConstant().raw();
        net.advance(power, Seconds{20.0 * tau});
        std::vector<double> theta(kWires);
        for (unsigned i = 0; i < kWires; ++i)
            theta[i] = net.temperature(i).raw();
        EXPECT_NEAR(outflow(theta), total_in, kWires * 1e-5 / r);
    }
}

TEST(ThermalNet, SteadyStateMatchesClosedFormUniformPower)
{
    // Under the same power P on every wire, all wires sit at one
    // temperature, so no heat flows laterally and each wire's P
    // leaves through its own R_self. That gives closed forms:
    //   None:    theta_i = theta_0 + P R_self
    //   Static:  theta_i = theta_0 + dtheta + P R_self
    //   Dynamic: theta_stack = theta_0 + dtheta + N P R_stack,
    //            theta_i = theta_stack + P R_self
    // The direct solve must hit them to rounding; a long transient
    // must settle on them under both solvers.
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    constexpr unsigned kWires = 8;
    const double p = 0.7; // W/m on every wire
    const std::vector<double> power(kWires, p);

    for (StackMode mode :
         {StackMode::None, StackMode::Static, StackMode::Dynamic}) {
        SCOPED_TRACE(mode == StackMode::None     ? "None"
                     : mode == StackMode::Static ? "Static"
                                                 : "Dynamic");
        for (ThermalSolver solver : kSolvers) {
            SCOPED_TRACE(thermalSolverName(solver));
            ThermalConfig config = noStack(solver);
            config.stack_mode = mode;
            config.delta_theta = Kelvin{4.0};
            config.stack_time_constant = Seconds{1e-4};
            ThermalNetwork net(tech, kWires, config);
            const double r_self =
                net.wireParams().selfResistance().raw();
            const double r_stack = config.stack_resistance.raw();
            const double dtheta = mode == StackMode::None
                ? 0.0
                : config.delta_theta.raw();
            const double stack = mode == StackMode::Dynamic
                ? ambient + dtheta + kWires * p * r_stack
                : ambient + dtheta;
            const double wire = stack + p * r_self;

            const std::vector<double> ss = net.steadyState(power);
            ASSERT_EQ(ss.size(), kWires);
            for (unsigned i = 0; i < kWires; ++i)
                EXPECT_NEAR(ss[i], wire, 1e-12 * (wire - ambient)) << i;

            // 20 time constants of the slowest node: the wires' own
            // for None/Static, the stack's for Dynamic.
            net.reset(Kelvin{ambient});
            const double tau = mode == StackMode::Dynamic
                ? config.stack_time_constant.raw()
                : net.wireParams().timeConstant().raw();
            net.advance(power, Seconds{20.0 * tau});
            for (unsigned i = 0; i < kWires; ++i)
                EXPECT_NEAR(net.temperature(i).raw(), wire, 1e-5) << i;
            if (mode == StackMode::Dynamic) {
                EXPECT_NEAR(net.stackTemperature().raw(), stack, 1e-5);
            }
        }
    }
}

TEST(ThermalNet, TransientConservesHeatPerInterval)
{
    // First law over one mid-transient interval: the heat injected
    // (bus power, plus the lower layers' p_lower = Δθ / R_stack into
    // a Dynamic stack) equals the rise in stored heat Σ C θ (stack
    // node included) plus the heat that left through the reference —
    // the self paths to θ_ref for None/Static, the stack-to-ambient
    // resistance for Dynamic. The outflow integral is measured by
    // Simpson quadrature over sub-interval advances; a wrong or
    // missing Jacobian entry (border row/column, corner, forcing)
    // breaks the balance at the first order.
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    constexpr unsigned kWires = 8;
    constexpr unsigned kSlices = 64;  // even, for Simpson's rule
    const std::vector<double> power = {0.9, 0.0, 0.3, 1.2,
                                       0.05, 0.6, 0.0, 0.45};

    for (ThermalSolver solver : kSolvers) {
        for (StackMode mode : {StackMode::None, StackMode::Static,
                               StackMode::Dynamic}) {
            SCOPED_TRACE(thermalSolverName(solver));
            SCOPED_TRACE(static_cast<int>(mode));
            ThermalConfig config = noStack(solver);
            config.stack_mode = mode;
            config.delta_theta = Kelvin{4.0};
            config.stack_time_constant = Seconds{1e-4};
            ThermalNetwork net(tech, kWires, config);
            const WireThermalParams &wire = net.wireParams();
            const double r_self = wire.selfResistance().raw();
            const double c_wire = wire.capacitance().raw();
            const double r_stack = config.stack_resistance.raw();
            const double c_stack =
                config.stack_time_constant.raw() / r_stack;
            const bool dynamic = mode == StackMode::Dynamic;

            auto stored = [&] {
                double heat = 0.0;
                for (unsigned i = 0; i < kWires; ++i)
                    heat += c_wire * net.temperature(i).raw();
                if (dynamic)
                    heat += c_stack * net.stackTemperature().raw();
                return heat;
            };
            auto outflow = [&] {
                if (dynamic)
                    return (net.stackTemperature().raw() - ambient) /
                        r_stack;
                const double ref = net.stackTemperature().raw();
                double total = 0.0;
                for (unsigned i = 0; i < kWires; ++i)
                    total += (net.temperature(i).raw() - ref) / r_self;
                return total;
            };

            // Start half a wire time constant into the heating
            // transient, so every coupling carries heat throughout
            // the two-time-constant interval.
            net.reset(Kelvin{ambient});
            net.advance(power, Seconds{0.5 * wire.timeConstant().raw()});
            const double duration = 2.0 * wire.timeConstant().raw();
            const double slice = duration / kSlices;
            const double heat_before = stored();
            double out = outflow();
            for (unsigned k = 1; k <= kSlices; ++k) {
                net.advance(power, Seconds{slice});
                const double weight =
                    k == kSlices ? 1.0 : (k % 2 == 1 ? 4.0 : 2.0);
                out += weight * outflow();
            }
            const double out_energy = out * slice / 3.0;

            double injected = 0.0;
            for (double p : power)
                injected += p;
            if (dynamic)
                injected += config.delta_theta.raw() / r_stack;
            const double in_energy = injected * duration;
            const double balance = stored() - heat_before + out_energy;
            EXPECT_NEAR(balance, in_energy, 1e-4 * in_energy);
        }
    }
}

TEST(ThermalNet, LateralCouplingWarmsIdleNeighbors)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork net(tech, 5, noStack(solver, true));
        net.reset(Kelvin{ambient});
        std::vector<double> power = {0, 0, 1.0, 0, 0};
        net.advance(power, Seconds{100e-6});
        EXPECT_GT(net.temperature(1).raw(), ambient + 1e-3);
        EXPECT_GT(net.temperature(3).raw(), ambient + 1e-3);
        // Symmetric spread, centre hottest, monotone decay outward.
        EXPECT_NEAR(net.temperature(1).raw(), net.temperature(3).raw(), 1e-9);
        EXPECT_GT(net.temperature(2).raw(), net.temperature(1).raw());
        EXPECT_GT(net.temperature(1).raw(), net.temperature(0).raw());
    }
}

TEST(ThermalNet, NoLateralCouplingIsolatesWires)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork net(tech, 5, noStack(solver, false));
        net.reset(Kelvin{ambient});
        std::vector<double> power = {0, 0, 1.0, 0, 0};
        net.advance(power, Seconds{100e-6});
        EXPECT_NEAR(net.temperature(1).raw(), ambient, 1e-9);
        EXPECT_GT(net.temperature(2).raw(), ambient + 0.5);
    }
}

TEST(ThermalNet, LateralCouplingLowersHotWireTemperature)
{
    // The paper's point in Sec 4.1.1: neighbor conduction matters
    // when activity differs across wires.
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork coupled(tech, 5, noStack(solver, true));
        ThermalNetwork isolated(tech, 5, noStack(solver, false));
        coupled.reset(Kelvin{ambient});
        isolated.reset(Kelvin{ambient});
        std::vector<double> power = {0, 0, 1.0, 0, 0};
        coupled.advance(power, Seconds{100e-6});
        isolated.advance(power, Seconds{100e-6});
        EXPECT_LT(coupled.temperature(2).raw(), isolated.temperature(2).raw());
    }
}

TEST(ThermalNet, UniformPowerKeepsWiresNearlyUniform)
{
    // With equal activity everywhere there is no lateral gradient:
    // the relative worst case of Sec 3.3's second pattern.
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork net(tech, 8, noStack(solver, true));
        net.reset(Kelvin{ambient});
        net.advance(std::vector<double>(8, 0.5), Seconds{100e-6});
        EXPECT_NEAR(net.maxTemperature().raw(),
                    net.averageTemperature().raw(), 1e-6);
    }
}

TEST(ThermalNet, StaticStackShiftsReference)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalConfig config;
        config.solver = solver;
        config.stack_mode = StackMode::Static;
        config.delta_theta = Kelvin{20.0};
        ThermalNetwork net(tech, 3, config);
        net.reset(Kelvin{ambient});
        net.advance(std::vector<double>(3, 0.0), Seconds{100e-6});
        for (unsigned i = 0; i < 3; ++i)
            EXPECT_NEAR(net.temperature(i).raw(), ambient + 20.0, 1e-4);
    }
}

TEST(ThermalNet, DynamicStackRampsSlowly)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalConfig config;
        config.solver = solver;
        config.stack_mode = StackMode::Dynamic;
        config.delta_theta = Kelvin{20.0};
        config.stack_time_constant = Seconds{1e-4}; // shortened for test speed
        ThermalNetwork net(tech, 3, config);
        net.reset(Kelvin{ambient});

        std::vector<double> idle(3, 0.0);
        // After one stack time constant: roughly 63% of the ramp.
        net.advance(idle, Seconds{1e-4});
        double after_one_tau = net.averageTemperature().raw();
        EXPECT_GT(after_one_tau, ambient + 10.0);
        EXPECT_LT(after_one_tau, ambient + 17.0);
        // After many: saturated at ambient + delta.
        net.advance(idle, Seconds{10e-4});
        EXPECT_NEAR(net.averageTemperature().raw(), ambient + 20.0, 0.1);
    }
}

TEST(ThermalNet, DynamicSteadyStateMatchesSolve)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalConfig config;
        config.solver = solver;
        config.stack_mode = StackMode::Dynamic;
        config.delta_theta = Kelvin{20.0};
        config.stack_time_constant = Seconds{1e-4};
        ThermalNetwork net(tech, 4, config);
        net.reset(Kelvin{ambient});
        std::vector<double> power = {0.2, 0.6, 0.1, 0.3};
        net.advance(power, Seconds{2e-3});
        std::vector<double> ss = net.steadyState(power);
        for (unsigned i = 0; i < 4; ++i)
            EXPECT_NEAR(net.temperature(i).raw(), ss[i], 1e-3) << i;
        // The bus's own power raises the stack above ambient + delta.
        EXPECT_GT(net.stackTemperature().raw(), ambient + 20.0);
    }
}

TEST(ThermalNet, StaticAndDynamicStacksAgreeAtSteadyState)
{
    // The dynamic BEOL stack must converge to the Static-mode
    // reference (ambient + delta_theta) when the bus itself is the
    // only other heat source.
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig stat;
    stat.stack_mode = StackMode::Static;
    stat.delta_theta = Kelvin{20.0};
    ThermalConfig dyn = stat;
    dyn.stack_mode = StackMode::Dynamic;
    dyn.stack_time_constant = Seconds{1e-4};

    ThermalNetwork net_s(tech, 4, stat);
    ThermalNetwork net_d(tech, 4, dyn);
    std::vector<double> power = {0.3, 0.1, 0.4, 0.2};
    auto ss_s = net_s.steadyState(power);
    auto ss_d = net_d.steadyState(power);
    // The dynamic stack also carries the bus's own power through
    // R_stack, so it sits slightly above the static reference —
    // bounded by total_power * R_stack.
    // W/m times K m / W composes to kelvin.
    double bound =
        ((0.3 + 0.1 + 0.4 + 0.2) * dyn.stack_resistance).raw();
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_GE(ss_d[i], ss_s[i] - 1e-9) << i;
        EXPECT_LE(ss_d[i], ss_s[i] + bound + 1e-9) << i;
    }
}

TEST(ThermalNet, CoolingDecaysBackToReference)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork net(tech, 3, noStack(solver));
        net.reset(Kelvin{ambient});
        std::vector<double> power = {1.0, 1.0, 1.0};
        net.advance(power, Seconds{50e-6});
        double hot = net.maxTemperature().raw();
        ASSERT_GT(hot, ambient + 0.5);
        net.advance(std::vector<double>(3, 0.0), Seconds{50e-6});
        EXPECT_NEAR(net.maxTemperature().raw(), ambient, 1e-4);
    }
}

TEST(ThermalNet, TemperatureMonotoneInPower)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalNetwork net(tech, 3, noStack(ThermalSolver::Modal));
    std::vector<double> low_p = {0.1, 0.1, 0.1};
    std::vector<double> high_p = {0.4, 0.4, 0.4};
    auto low = net.steadyState(low_p);
    auto high = net.steadyState(high_p);
    for (unsigned i = 0; i < 3; ++i)
        EXPECT_GT(high[i], low[i]);
}

TEST(ThermalNet, AccessorsAndValidation)
{
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm45);
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        ThermalNetwork net(tech, 7, noStack(solver));
        EXPECT_EQ(net.numWires(), 7u);
        EXPECT_EQ(net.solver(), solver);
        EXPECT_GT(net.stepWidth().raw(), 0.0);
        EXPECT_EQ(net.temperatures().size(), 7u);

        setAbortOnError(false);
        EXPECT_THROW(ThermalNetwork(tech, 0, noStack(solver)),
                     FatalError);
        EXPECT_THROW(net.advance({1.0}, Seconds{1.0}),
                     FatalError); // wrong size
        EXPECT_THROW(net.advance(std::vector<double>(7, 0.0),
                                 Seconds{-1.0}),
                     FatalError);
        setAbortOnError(true);
    }
}

TEST(ThermalNet, CheckedAdvanceMatchesUncheckedWhenHealthy)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork plain(tech, 5, noStack(solver));
        ThermalNetwork guarded(tech, 5, noStack(solver));
        plain.reset(Kelvin{ambient});
        guarded.reset(Kelvin{ambient});
        std::vector<double> power = {0.1, 0.4, 0.9, 0.2, 0.0};
        plain.advance(power, Seconds{20e-6});
        std::vector<ThermalFault> faults =
            guarded.advanceChecked(power, Seconds{20e-6});
        EXPECT_TRUE(faults.empty());
        for (unsigned i = 0; i < 5; ++i)
            EXPECT_NEAR(guarded.temperature(i).raw(),
                        plain.temperature(i).raw(), 1e-9) << i;
    }
}

TEST(ThermalNet, CheckedAdvanceClampsTemperatureCeiling)
{
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalConfig config = noStack(solver);
        config.temperature_ceiling = Kelvin{ambient + 0.2};
        ThermalNetwork net(tech, 3, config);
        net.reset(Kelvin{ambient});
        std::vector<ThermalFault> faults =
            net.advanceChecked({1.0, 1.0, 1.0}, Seconds{50e-6});
        ASSERT_FALSE(faults.empty());
        bool ceiling_fault = false;
        for (const ThermalFault &f : faults) {
            if (f.kind == ThermalFault::Kind::Ceiling) {
                ceiling_fault = true;
                EXPECT_GT(f.temperature.raw(),
                          config.temperature_ceiling.raw());
                EXPECT_FALSE(f.message.empty());
            }
        }
        EXPECT_TRUE(ceiling_fault);
        EXPECT_LE(net.maxTemperature().raw(),
                  config.temperature_ceiling.raw() + 1e-12);
    }
}

TEST(ThermalNet, CheckedAdvanceContainsPersistentNaN)
{
    // Every integration step is poisoned: RK4 with its halving
    // disabled gives up, and the modal update refuses to commit.
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalConfig config = noStack(solver);
        config.max_integration_retries = 0; // halving disabled
        ThermalNetwork net(tech, 2, config);
        net.reset(Kelvin{ambient});
        FaultInjector::instance().reset();
        FaultInjector::instance().armCallFault(
            FaultSite::IntegrationStep, 1, 1);
        std::vector<ThermalFault> faults =
            net.advanceChecked({0.5, 0.5}, Seconds{10e-6});
        FaultInjector::instance().reset();
        ASSERT_EQ(faults.size(), 1u);
        EXPECT_EQ(faults[0].kind, ThermalFault::Kind::NonFinite);
        // Network remains usable with finite state.
        EXPECT_TRUE(std::isfinite(net.temperature(0).raw()));
        EXPECT_TRUE(std::isfinite(net.temperature(1).raw()));
        std::vector<ThermalFault> clean =
            net.advanceChecked({0.0, 0.0}, Seconds{10e-6});
        EXPECT_TRUE(clean.empty());
    }
}

TEST(ThermalNet, CheckedAdvanceDetectsFiniteDivergence)
{
    // Force the RK4 step outside the stability region of the fastest
    // (alternating) eigenmode: the state grows geometrically while
    // staying finite, the failure mode step-halving cannot see. The
    // steady-state bound check must catch it.
    const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
    ThermalConfig config = noStack(ThermalSolver::Rk4);
    ThermalNetwork probe(tech, 2, config);
    double tau_fast = 5.0 * probe.stepWidth().raw(); // dt = 0.2 tau

    config.max_dt = Seconds{3.1 * tau_fast}; // |R(z)| ~ 1.6
    config.temperature_ceiling =
        Kelvin{0.0}; // isolate the divergence guard
    ThermalNetwork net(tech, 2, config);
    net.reset(Kelvin{ambient});
    std::vector<double> power = {1.0, 0.0};
    bool diverged = false;
    for (int i = 0; i < 400 && !diverged; ++i) {
        for (const ThermalFault &f :
             net.advanceChecked(power, config.max_dt))
            diverged = diverged ||
                f.kind == ThermalFault::Kind::Divergence;
    }
    EXPECT_TRUE(diverged);
    EXPECT_TRUE(std::isfinite(net.temperature(0).raw()));
    EXPECT_TRUE(std::isfinite(net.temperature(1).raw()));
    // Clamped back onto (or below) the steady-state bound.
    std::vector<double> ss = net.steadyState(power);
    double ss_max = *std::max_element(ss.begin(), ss.end());
    EXPECT_LE(net.maxTemperature().raw(), ss_max + 1e-6);
}

TEST(ThermalNet, CoolingFromAboveIsNotFlaggedAsDivergence)
{
    // A hot start legitimately sits above steady state; falling back
    // toward it must not trip the runaway guard.
    for (ThermalSolver solver : kSolvers) {
        SCOPED_TRACE(thermalSolverName(solver));
        const TechnologyNode &tech = itrsNode(ItrsNode::Nm130);
        ThermalNetwork net(tech, 3, noStack(solver));
        net.reset(Kelvin{ambient + 100.0});
        std::vector<double> idle(3, 0.0);
        for (int i = 0; i < 10; ++i)
            EXPECT_TRUE(net.advanceChecked(idle, Seconds{5e-6}).empty()) << i;
        EXPECT_LT(net.maxTemperature().raw(), ambient + 100.0);
    }
}

} // anonymous namespace
} // namespace nanobus
