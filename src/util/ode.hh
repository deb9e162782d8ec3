/**
 * @file
 * ODE integrators for the thermal solver stack.
 *
 * Two families live here:
 *
 *  - Rk4Solver — classical fourth-order Runge-Kutta for general
 *    dy/dt = f(t, y), the method the paper uses for Eqs 3-4. Being
 *    explicit, its stable step is bounded by the *stiffest* time
 *    constant in the system, however short the caller's horizon.
 *
 *  - TrBdf2Solver — the L-stable, second-order TR-BDF2 method for
 *    *linear* systems dy/dt = A y + b, with an embedded local-error
 *    estimate choosing the step widths from a dyadic ladder
 *    duration / 2^k. Stability never bounds the step; accuracy does,
 *    so a stiff network crosses a quiet interval in one or two
 *    steps. Every stage solves with the same operator I − (γh/2)·A,
 *    which the caller factors once per rung and reuses across steps
 *    and intervals (docs/THERMAL.md §3).
 *
 * The linear algebra is injected as a template parameter (a Factor
 * providing trySolveInPlace(), e.g. la's BandedFactorization), so
 * this layer-0 header depends on nothing above util.
 *
 * Both families own their workspace: repeated stepping performs no
 * allocation, and the derivative callback is a borrowed FunctionRef
 * rather than an owning std::function.
 */

#ifndef NANOBUS_UTIL_ODE_HH
#define NANOBUS_UTIL_ODE_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "util/function_ref.hh"
#include "util/logging.hh"
#include "util/result.hh"

namespace nanobus {

/**
 * Outcome of a checked integration (Rk4Solver::integrateChecked and
 * TrBdf2Solver::integrate share this taxonomy).
 *
 * `ok` is false only when no acceptable state could be produced (for
 * RK4, after exhausting the retry budget; for TR-BDF2, when a
 * factorization or linear solve fails, or the error test fails even
 * at the smallest step); the state vector is then left at the last
 * accepted value and `completed_time` tells how far the integration
 * got.
 */
struct IntegrationReport
{
    /** Whole duration integrated with a finite state throughout. */
    bool ok = true;
    /** Accepted steps. */
    size_t steps = 0;
    /** Rejected steps: RK4 halvings after a non-finite state, or
     *  TR-BDF2 steps that failed the local-error test. */
    size_t retries = 0;
    /** Largest |dy_i/dt| observed at an accepted step start — a
     *  residual proxy: large values flag stiffness trouble even when
     *  the state stays finite. */
    double max_derivative = 0.0;
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
     * fault-injection site FaultSite::Rk4Step poisons one step to
     * exercise the recovery path deterministically.
     */
    [[nodiscard]] IntegrationReport integrateChecked(
        const Derivative &f, double t, double duration, double max_dt,
        std::vector<double> &y, size_t max_retries = 12);

  private:
    std::vector<double> k1_, k2_, k3_, k4_, scratch_;
    std::vector<double> backup_;
};

/**
 * TR-BDF2 (Bank et al. 1985) with γ = 2 − √2 for the
 * constant-coefficient linear system dy/dt = A y + b, error-controlled
 * over a dyadic step ladder.
 *
 * One step of width h is a trapezoidal stage to t + γh followed by a
 * BDF2 stage to t + h. With this γ both stages solve with the same
 * operator M = I − (γh/2) A, and so does the Hosea–Shampine (1996)
 * local-error estimate, which is filtered through M⁻¹ to stay bounded
 * on stiff modes. The method is L-stable (stiff modes are damped,
 * never aliased) and second order.
 *
 * integrate() picks the step widths: h = duration / 2^k on rung k of
 * a dyadic ladder. Every call starts at k = 0; a step whose max-norm
 * estimate exceeds the tolerance is rejected and retried at k + 1
 * (h halves); after an accepted step whose estimate is below
 * tolerance / 8 the ladder moves to k − 1 (h doubles) when the step
 * ended on that coarser grid. The step sequence therefore depends
 * only on (y, b, duration), never on earlier calls.
 *
 * The linear algebra is the caller's: A is applied through a borrowed
 * matvec callback and M arrives pre-factored, one `Factor` per rung
 * (any type with `trySolveInPlace(std::vector<double>&) -> Status`,
 * e.g. la's BandedFactorization). Factoring once per (A, h) pair and
 * reusing it across steps and calls is what makes a step cost three
 * O(band) solves.
 */
template <class Factor>
class TrBdf2Solver
{
  public:
    /** γ = 2 − √2: the one value at which both stages share M. */
    static constexpr double kGamma = 2.0 - std::numbers::sqrt2;
    /** c in M = I − c·h·A (c = γ/2). */
    static constexpr double kOperatorScale = 0.5 * kGamma;
    /** Deepest rung of the ladder: h >= duration / 2^kMaxRung. */
    static constexpr unsigned kMaxRung = 30;

    /** Matvec callback: fills `ay` (already sized) with A·y. */
    using ApplyMatrix = FunctionRef<void(
        const std::vector<double> &y, std::vector<double> &ay)>;
    /** The factorization of M for h = duration / 2^rung, or null
     *  with `error` filled when it cannot be built. */
    using RungFactor =
        FunctionRef<const Factor *(unsigned rung, Error &error)>;

    /** @param dimension Size of the state vector. */
    explicit TrBdf2Solver(size_t dimension)
        : f_(dimension), stage_(dimension), next_(dimension),
          estimate_(dimension)
    {
    }

    /** State vector dimension. */
    size_t dimension() const { return f_.size(); }

    /**
     * Advance `y` by `duration` under the ladder controller, holding
     * every accepted step's local-error estimate to `tolerance`
     * (max-norm, y's unit). Factorization or solve failures, and a
     * step that misses the tolerance even at kMaxRung, end the call
     * with `ok == false`, leaving `y` at the last accepted step.
     * `retries` counts rejected steps. An infinite tolerance takes
     * exactly one step of width `duration`.
     */
    [[nodiscard]] IntegrationReport integrate(
        RungFactor factor_for, ApplyMatrix apply,
        const std::vector<double> &b, double duration, double tolerance,
        std::vector<double> &y)
    {
        IntegrationReport report;
        auto fail = [&report](Error error) {
            report.ok = false;
            report.error = std::move(error);
            return report;
        };
        if (y.size() != dimension() || b.size() != dimension())
            return fail(Error{ErrorCode::InvalidArgument,
                              "state/forcing size != dimension " +
                                  std::to_string(dimension())});
        if (!(duration > 0.0) || !std::isfinite(duration))
            return fail(Error{ErrorCode::InvalidArgument,
                              "duration must be positive and finite"});
        if (!(tolerance > 0.0))
            return fail(Error{ErrorCode::InvalidArgument,
                              "tolerance must be positive"});

        unsigned rung = 0;
        uint64_t done = 0;  // accepted steps of width duration / 2^rung
        while (done < (uint64_t{1} << rung)) {
            const double h = std::ldexp(duration, -static_cast<int>(rung));
            Error error;
            const Factor *factor = factor_for(rung, error);
            if (!factor)
                return fail(std::move(error));
            double error_norm = 0.0;
            Status status =
                attempt(*factor, apply, b, h, y, error_norm, report);
            if (!status.ok())
                return fail(status.error());
            if (error_norm > tolerance) {
                if (rung == kMaxRung)
                    return fail(Error{
                        ErrorCode::BudgetExhausted,
                        "local error " + std::to_string(error_norm) +
                            " above tolerance at the smallest step"});
                ++rung;
                done *= 2;
                ++report.retries;
                continue;
            }
            y.swap(next_);
            ++done;
            ++report.steps;
            report.completed_time =
                duration * std::ldexp(static_cast<double>(done),
                                      -static_cast<int>(rung));
            if (error_norm < tolerance / 8.0 && rung > 0 &&
                done % 2 == 0) {
                --rung;
                done /= 2;
            }
        }
        return report;
    }

  private:
    /** w = 1 / (γ(2 − γ)): the BDF2 stage's weight on y_γ. */
    static constexpr double kStageWeight =
        1.0 / (kGamma * (2.0 - kGamma));

    /**
     * Take one step from `y` into next_ and estimate its local error.
     * With f = A y + b, d = γ/2 and M = I − d h A:
     *
     *     M y_γ     = y + d h (f_n + b)                (trapezoidal)
     *     M y_{n+1} = w y_γ + (1 − w) y + d h b         (BDF2)
     *     M e       = (h/3) ((1 − γ) f_n − f_γ + γ f_{n+1})
     *
     * f_γ and f_{n+1} follow from the stage equations, so the only
     * matvec is f_n.
     */
    Status attempt(const Factor &factor, ApplyMatrix apply,
                   const std::vector<double> &b, double h,
                   const std::vector<double> &y, double &error_norm,
                   IntegrationReport &report)
    {
        const size_t n = dimension();
        const double dh = kOperatorScale * h;

        apply(y, f_);
        for (size_t i = 0; i < n; ++i) {
            f_[i] += b[i];
            report.max_derivative =
                std::max(report.max_derivative, std::fabs(f_[i]));
            stage_[i] = y[i] + dh * (f_[i] + b[i]);
        }
        if (Status s = factor.trySolveInPlace(stage_); !s.ok())
            return s;

        for (size_t i = 0; i < n; ++i)
            next_[i] = kStageWeight * stage_[i] +
                (1.0 - kStageWeight) * y[i] + dh * b[i];
        if (Status s = factor.trySolveInPlace(next_); !s.ok())
            return s;

        const double third = h / 3.0;
        const double inv_dh = 1.0 / dh;
        for (size_t i = 0; i < n; ++i) {
            // First stage: y_γ = y + d h (f_n + f_γ).
            const double f_stage = (stage_[i] - y[i]) * inv_dh - f_[i];
            // Second stage: y_{n+1} = w y_γ + (1 - w) y + d h f_{n+1}.
            const double f_end =
                (next_[i] - kStageWeight * stage_[i] -
                 (1.0 - kStageWeight) * y[i]) * inv_dh;
            estimate_[i] = third * ((1.0 - kGamma) * f_[i] - f_stage +
                                    kGamma * f_end);
        }
        if (Status s = factor.trySolveInPlace(estimate_); !s.ok())
            return s;

        error_norm = 0.0;
        for (double e : estimate_)
            error_norm = std::max(error_norm, std::fabs(e));
        return Status();
    }

    std::vector<double> f_;         // f_n = A y + b at the step start
    std::vector<double> stage_;     // y_γ
    std::vector<double> next_;      // y_{n+1}
    std::vector<double> estimate_;  // filtered local error
};

} // namespace nanobus

#endif // NANOBUS_UTIL_ODE_HH
