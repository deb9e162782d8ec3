/**
 * @file
 * The RK4 integrator of the thermal solver stack.
 *
 * Rk4Solver is classical fourth-order Runge-Kutta for general
 * dy/dt = f(t, y), the method the paper uses for Eqs 3-4 and the
 * thermal oracle. Being explicit, its stable step is bounded by the
 * *stiffest* time constant in the system, however short the caller's
 * horizon. The exact modal update that is the thermal default lives
 * with the network it diagonalizes (thermal/network.hh).
 *
 * The solver owns its workspace: repeated stepping performs no
 * allocation, and the derivative callback is a borrowed FunctionRef
 * rather than an owning std::function.
 */

#ifndef NANOBUS_UTIL_ODE_HH
#define NANOBUS_UTIL_ODE_HH

#include <cstddef>
#include <vector>

#include "util/function_ref.hh"
#include "util/result.hh"

namespace nanobus {

/**
 * Outcome of a checked integration (Rk4Solver::integrateChecked and
 * the thermal network's modal update share this taxonomy).
 *
 * `ok` is false only when no acceptable state could be produced (for
 * RK4, after exhausting the retry budget; for the modal update, when
 * it comes out non-finite); the state vector is then left at the
 * last accepted value and `completed_time` tells how far the
 * integration got.
 */
struct IntegrationReport
{
    /** Whole duration integrated with a finite state throughout. */
    bool ok = true;
    /** Accepted steps. */
    size_t steps = 0;
    /** Rejected steps: RK4 halvings after a non-finite state. */
    size_t retries = 0;
    /** Simulated time actually advanced [same unit as duration]. */
    double completed_time = 0.0;
    /** Failure details when !ok. */
    Error error;
};

/**
 * Fixed-step RK4 solver for dy/dt = f(t, y).
 *
 * The derivative callback fills `dydt` (already sized) from (t, y).
 */
class Rk4Solver
{
  public:
    /**
     * Derivative function signature. A borrowed FunctionRef: the
     * integrator never outlives the call it is passed to, so the
     * hot loop pays no std::function allocation or double
     * indirection. Call sites keep passing lambdas unchanged.
     */
    using Derivative = FunctionRef<
        void(double t, const std::vector<double> &y,
             std::vector<double> &dydt)>;

    /** @param dimension Size of the state vector. */
    explicit Rk4Solver(size_t dimension);

    /** State vector dimension. */
    size_t dimension() const { return k1_.size(); }

    /**
     * Advance `y` in place by one RK4 step of width dt.
     *
     * @param f Derivative function.
     * @param t Current time.
     * @param dt Step width.
     * @param y State; updated to the value at t + dt.
     */
    void step(const Derivative &f, double t, double dt,
              std::vector<double> &y);

    /**
     * Advance `y` from t to t + duration using ceil(duration/max_dt)
     * equal RK4 steps. Returns the number of steps taken.
     */
    size_t integrate(const Derivative &f, double t, double duration,
                     double max_dt, std::vector<double> &y);

    /**
     * Like integrate(), but numerically guarded: after every step the
     * state is checked for NaN/inf; a non-finite state rolls the step
     * back and retries with half the width, up to `max_retries`
     * halvings across the whole call. Invalid arguments and
     * non-finite initial states are reported as errors rather than
     * panicking, so a batch sweep can survive one bad segment. The
     * fault-injection site FaultSite::IntegrationStep poisons one
     * step to exercise the recovery path deterministically.
     */
    [[nodiscard]] IntegrationReport integrateChecked(
        const Derivative &f, double t, double duration, double max_dt,
        std::vector<double> &y, size_t max_retries = 12);

  private:
    std::vector<double> k1_, k2_, k3_, k4_, scratch_;
    std::vector<double> backup_;
};

} // namespace nanobus

#endif // NANOBUS_UTIL_ODE_HH
