/**
 * @file
 * Parameterized property tests of the thermal-RC network across
 * technology nodes and bus widths: linearity, superposition,
 * symmetry, and transient/steady-state agreement. The transient
 * property runs under both solvers (RK4 oracle, modal default) at
 * one tolerance; the others exercise the direct steady-state solve,
 * which no solver touches.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "thermal/network.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

using Param = std::tuple<ItrsNode, unsigned /*wires*/>;

class ThermalProperty : public ::testing::TestWithParam<Param>
{
  protected:
    const TechnologyNode &tech() const
    {
        return itrsNode(std::get<0>(GetParam()));
    }
    unsigned wires() const { return std::get<1>(GetParam()); }

    ThermalConfig
    config(ThermalSolver solver = ThermalConfig().solver) const
    {
        ThermalConfig c;
        c.stack_mode = StackMode::None;
        c.solver = solver;
        return c;
    }
};

TEST_P(ThermalProperty, SteadyStateRisesAreLinearInPower)
{
    // The network is linear: doubling all powers doubles every rise.
    ThermalNetwork net(tech(), wires(), config());
    Rng rng(wires() * 3);
    std::vector<double> power(wires());
    for (auto &p : power)
        p = rng.uniform(0.0, 1.0);
    std::vector<double> twice = power;
    for (auto &p : twice)
        p *= 2.0;

    auto t1 = net.steadyState(power);
    auto t2 = net.steadyState(twice);
    for (unsigned i = 0; i < wires(); ++i) {
        EXPECT_NEAR(t2[i] - 318.15, 2.0 * (t1[i] - 318.15),
                    1e-9 * (t1[i] - 318.15) + 1e-12)
            << i;
    }
}

TEST_P(ThermalProperty, Superposition)
{
    ThermalNetwork net(tech(), wires(), config());
    Rng rng(wires() * 5);
    std::vector<double> pa(wires()), pb(wires()), pab(wires());
    for (unsigned i = 0; i < wires(); ++i) {
        pa[i] = rng.uniform(0.0, 0.5);
        pb[i] = rng.uniform(0.0, 0.5);
        pab[i] = pa[i] + pb[i];
    }
    auto ta = net.steadyState(pa);
    auto tb = net.steadyState(pb);
    auto tab = net.steadyState(pab);
    for (unsigned i = 0; i < wires(); ++i) {
        double rise_sum = (ta[i] - 318.15) + (tb[i] - 318.15);
        EXPECT_NEAR(tab[i] - 318.15, rise_sum,
                    1e-9 * rise_sum + 1e-12);
    }
}

TEST_P(ThermalProperty, MirrorSymmetry)
{
    // Reversing the power vector mirrors the temperature profile.
    ThermalNetwork net(tech(), wires(), config());
    Rng rng(wires() * 7);
    std::vector<double> power(wires());
    for (auto &p : power)
        p = rng.uniform(0.0, 1.0);
    std::vector<double> reversed(power.rbegin(), power.rend());

    auto t = net.steadyState(power);
    auto tr = net.steadyState(reversed);
    for (unsigned i = 0; i < wires(); ++i)
        EXPECT_NEAR(t[i], tr[wires() - 1 - i], 1e-9);
}

TEST_P(ThermalProperty, TransientConvergesToSteadyState)
{
    for (ThermalSolver solver :
         {ThermalSolver::Rk4, ThermalSolver::Modal}) {
        SCOPED_TRACE(thermalSolverName(solver));
        ThermalNetwork net(tech(), wires(), config(solver));
        net.reset(Kelvin{318.15});
        Rng rng(wires() * 11);
        std::vector<double> power(wires());
        for (auto &p : power)
            p = rng.uniform(0.0, 1.0);
        // >> any wire time constant at every node.
        net.advance(power, 2000.0 * net.wireParams().timeConstant());
        auto ss = net.steadyState(power);
        for (unsigned i = 0; i < wires(); ++i)
            EXPECT_NEAR(net.temperature(i).raw(), ss[i], 1e-4) << i;
    }
}

TEST_P(ThermalProperty, NoWireBelowAmbientUnderHeating)
{
    ThermalNetwork net(tech(), wires(), config());
    Rng rng(wires() * 13);
    std::vector<double> power(wires());
    for (auto &p : power)
        p = rng.chance(0.5) ? rng.uniform(0.0, 1.0) : 0.0;
    auto t = net.steadyState(power);
    for (unsigned i = 0; i < wires(); ++i)
        EXPECT_GE(t[i], 318.15 - 1e-9) << i;
}

TEST_P(ThermalProperty, TotalHeatBalancesAtSteadyState)
{
    // At steady state the heat leaving through the downward paths
    // equals the total injected power (lateral flows cancel).
    ThermalNetwork net(tech(), wires(), config());
    Rng rng(wires() * 17);
    std::vector<double> power(wires());
    double total_in = 0.0;
    for (auto &p : power) {
        p = rng.uniform(0.0, 1.0);
        total_in += p;
    }
    auto t = net.steadyState(power);
    const double r = net.wireParams().selfResistance().raw();
    double total_out = 0.0;
    for (unsigned i = 0; i < wires(); ++i)
        total_out += (t[i] - 318.15) / r;
    EXPECT_NEAR(total_out, total_in, 1e-9 * total_in);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ThermalProperty,
    ::testing::Combine(
        ::testing::Values(ItrsNode::Nm130, ItrsNode::Nm90,
                          ItrsNode::Nm65, ItrsNode::Nm45),
        ::testing::Values(1u, 2u, 5u, 33u)),
    [](const ::testing::TestParamInfo<Param> &info) {
        return std::string(itrsNodeName(std::get<0>(info.param))) +
            "_n" + std::to_string(std::get<1>(info.param));
    });

} // anonymous namespace
} // namespace nanobus
