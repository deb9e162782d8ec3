#include "la/banded.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

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

BandedMatrix::BandedMatrix(size_t n, bool bordered)
    : diag_(n, 0.0), lower_(n > 0 ? n - 1 : 0, 0.0),
      upper_(n > 0 ? n - 1 : 0, 0.0), bordered_(bordered)
{
    if (bordered_) {
        border_row_.assign(n, 0.0);
        border_col_.assign(n, 0.0);
    }
}

BandedMatrix
BandedMatrix::tridiagonal(size_t n)
{
    if (n == 0)
        fatal("BandedMatrix: order must be positive");
    return BandedMatrix(n, false);
}

BandedMatrix
BandedMatrix::bordered(size_t n)
{
    if (n == 0)
        fatal("BandedMatrix: band order must be positive");
    return BandedMatrix(n, true);
}

void
BandedMatrix::multiply(const std::vector<double> &x,
                       std::vector<double> &y) const
{
    const size_t n = bandOrder();
    if (x.size() != order())
        panic("BandedMatrix::multiply: vector size %zu != order %zu",
              x.size(), order());
    y.resize(order());
    for (size_t i = 0; i < n; ++i) {
        double acc = diag_[i] * x[i];
        if (i > 0)
            acc += lower_[i - 1] * x[i - 1];
        if (i + 1 < n)
            acc += upper_[i] * x[i + 1];
        if (bordered_)
            acc += border_col_[i] * x[n];
        y[i] = acc;
    }
    if (bordered_) {
        double acc = corner_ * x[n];
        for (size_t i = 0; i < n; ++i)
            acc += border_row_[i] * x[i];
        y[n] = acc;
    }
}

Matrix
BandedMatrix::toDense() const
{
    const size_t n = bandOrder();
    Matrix dense(order(), order(), 0.0);
    for (size_t i = 0; i < n; ++i) {
        dense(i, i) = diag_[i];
        if (i + 1 < n) {
            dense(i, i + 1) = upper_[i];
            dense(i + 1, i) = lower_[i];
        }
        if (bordered_) {
            dense(i, n) = border_col_[i];
            dense(n, i) = border_row_[i];
        }
    }
    if (bordered_)
        dense(n, n) = corner_;
    return dense;
}

double
BandedMatrix::norm1() const
{
    const size_t n = bandOrder();
    double norm = 0.0;
    for (size_t c = 0; c < n; ++c) {
        double col = std::fabs(diag_[c]);
        if (c > 0)
            col += std::fabs(upper_[c - 1]);
        if (c + 1 < n)
            col += std::fabs(lower_[c]);
        if (bordered_)
            col += std::fabs(border_row_[c]);
        norm = std::max(norm, col);
    }
    if (bordered_) {
        double col = std::fabs(corner_);
        for (size_t i = 0; i < n; ++i)
            col += std::fabs(border_col_[i]);
        norm = std::max(norm, col);
    }
    return norm;
}

double
BandedMatrix::maxAbs() const
{
    const size_t n = bandOrder();
    double peak = 0.0;
    for (size_t i = 0; i < n; ++i) {
        peak = std::max(peak, std::fabs(diag_[i]));
        if (i + 1 < n) {
            peak = std::max(peak, std::fabs(upper_[i]));
            peak = std::max(peak, std::fabs(lower_[i]));
        }
        if (bordered_) {
            peak = std::max(peak, std::fabs(border_row_[i]));
            peak = std::max(peak, std::fabs(border_col_[i]));
        }
    }
    if (bordered_)
        peak = std::max(peak, std::fabs(corner_));
    return peak;
}

BandedFactorization::BandedFactorization(BandedMatrix a)
{
    band_ = std::move(a);
    Status status = factor();
    if (!status.ok())
        fatal("BandedFactorization: %s",
              status.error().message.c_str());
}

Result<BandedFactorization>
BandedFactorization::tryFactor(BandedMatrix a)
{
    if (FaultInjector::active() &&
        FaultInjector::instance().fireCallFault(FaultSite::LuFactor))
        return Result<BandedFactorization>::failure(
            ErrorCode::FaultInjected, "injected factorization failure");

    BandedFactorization f;
    f.band_ = std::move(a);
    Status status = f.factor();
    if (!status.ok())
        return Result<BandedFactorization>(status.error());
    return Result<BandedFactorization>(std::move(f));
}

Status
BandedFactorization::factor()
{
    const size_t n = band_.bandOrder();
    if (n == 0)
        return Status::failure(ErrorCode::InvalidArgument,
                               "matrix is empty");

    // norm1()/maxAbs() fold through std::max, which *drops* NaNs
    // (max(x, NaN) == x), so probe every entry directly.
    bool finite = std::isfinite(band_.corner());
    for (size_t i = 0; finite && i < n; ++i) {
        finite = std::isfinite(band_.diag(i)) &&
            (i + 1 >= n || (std::isfinite(band_.upper(i)) &&
                            std::isfinite(band_.lower(i)))) &&
            (!band_.hasBorder() ||
             (std::isfinite(band_.borderRow(i)) &&
              std::isfinite(band_.borderCol(i))));
    }
    if (!finite)
        return Status::failure(ErrorCode::NonFinite,
                               "matrix has a non-finite entry");
    norm1_ = band_.norm1();
    const double max_abs = band_.maxAbs();
    // Same singularity criterion as la/lu: a pivot below
    // order * eps * max|a_ij| carries no trustworthy digits.
    const double pivot_tol = static_cast<double>(band_.order()) *
        std::numeric_limits<double>::epsilon() * max_abs;
    rcond_ = -1.0;

    // Thomas elimination on the band, no pivoting (header contract:
    // diagonally dominant inputs). diag_ becomes the U pivots (then
    // their reciprocals, below), lower_ the L multipliers; upper_ is
    // untouched.
    for (size_t i = 0; i < n; ++i) {
        if (i > 0) {
            const double m = band_.lower(i - 1) / band_.diag(i - 1);
            band_.lower(i - 1) = m;
            band_.diag(i) -= m * band_.upper(i - 1);
        }
        if (std::fabs(band_.diag(i)) <= pivot_tol)
            return Status::failure(
                ErrorCode::SingularMatrix,
                "singular band (pivot " + std::to_string(i) +
                    " magnitude " +
                    std::to_string(std::fabs(band_.diag(i))) +
                    " below tolerance)");
    }
    // Keep the pivots' reciprocals: the substitutions then multiply
    // instead of dividing along their serial dependency chains.
    for (size_t i = 0; i < n; ++i)
        band_.diag(i) = 1.0 / band_.diag(i);

    if (band_.hasBorder()) {
        // w = T^-1 u (border column) and wt = T^-T v (border row),
        // then the Schur complement s = d - v^T w.
        border_w_.resize(n);
        border_wt_.resize(n);
        for (size_t i = 0; i < n; ++i) {
            border_w_[i] = band_.borderCol(i);
            border_wt_[i] = band_.borderRow(i);
        }
        bandSolve(border_w_.data());
        bandSolveTransposed(border_wt_.data());
        double vtw = 0.0;
        for (size_t i = 0; i < n; ++i)
            vtw += band_.borderRow(i) * border_w_[i];
        schur_ = band_.corner() - vtw;
        if (!std::isfinite(schur_))
            return Status::failure(ErrorCode::NonFinite,
                                   "Schur complement is non-finite");
        if (std::fabs(schur_) <= pivot_tol)
            return Status::failure(
                ErrorCode::SingularMatrix,
                "singular border (Schur complement magnitude " +
                    std::to_string(std::fabs(schur_)) +
                    " below tolerance)");
    }
    return Status();
}

void
BandedFactorization::bandSolve(double *x) const
{
    const size_t n = band_.bandOrder();
    // Forward through unit-lower L, then backward through U.
    for (size_t i = 1; i < n; ++i)
        x[i] -= band_.lower(i - 1) * x[i - 1];
    x[n - 1] *= band_.diag(n - 1);
    for (size_t ii = n - 1; ii-- > 0;)
        x[ii] = (x[ii] - band_.upper(ii) * x[ii + 1]) *
                band_.diag(ii);
}

void
BandedFactorization::bandSolveTransposed(double *x) const
{
    const size_t n = band_.bandOrder();
    // T^T = U^T L^T: forward through U^T, then backward through L^T.
    x[0] *= band_.diag(0);
    for (size_t i = 1; i < n; ++i)
        x[i] = (x[i] - band_.upper(i - 1) * x[i - 1]) *
               band_.diag(i);
    for (size_t ii = n - 1; ii-- > 0;)
        x[ii] -= band_.lower(ii) * x[ii + 1];
}

void
BandedFactorization::solveInPlace(std::vector<double> &x) const
{
    const size_t n = band_.bandOrder();
    if (x.size() != order())
        panic("BandedFactorization::solve: rhs size %zu != order %zu",
              x.size(), order());

    bandSolve(x.data());
    if (band_.hasBorder()) {
        double vty = 0.0;
        for (size_t i = 0; i < n; ++i)
            vty += band_.borderRow(i) * x[i];
        const double xn = (x[n] - vty) / schur_;
        for (size_t i = 0; i < n; ++i)
            x[i] -= xn * border_w_[i];
        x[n] = xn;
    }
}

std::vector<double>
BandedFactorization::solve(const std::vector<double> &b) const
{
    std::vector<double> x = b;
    solveInPlace(x);
    return x;
}

Status
BandedFactorization::trySolveInPlace(std::vector<double> &x) const
{
    if (FaultInjector::active() &&
        FaultInjector::instance().fireCallFault(FaultSite::LuSolve))
        return Status::failure(ErrorCode::FaultInjected,
                               "injected solve failure");

    if (x.size() != order())
        return Status::failure(
            ErrorCode::InvalidArgument,
            "rhs size " + std::to_string(x.size()) + " != order " +
                std::to_string(order()));
    if (!allFinite(x))
        return Status::failure(ErrorCode::NonFinite,
                               "rhs has a non-finite entry");

    solveInPlace(x);
    if (!allFinite(x))
        return Status::failure(
            ErrorCode::NonFinite,
            "solution overflowed (matrix effectively singular)");
    return Status();
}

Result<std::vector<double>>
BandedFactorization::trySolve(const std::vector<double> &b) const
{
    std::vector<double> x = b;
    Status solved = trySolveInPlace(x);
    if (!solved.ok())
        return Result<std::vector<double>>(solved.error());
    return Result<std::vector<double>>(std::move(x));
}

std::vector<double>
BandedFactorization::solveTransposed(const std::vector<double> &b) const
{
    const size_t n = band_.bandOrder();
    if (b.size() != order())
        panic("BandedFactorization::solveTransposed: rhs size %zu != "
              "order %zu", b.size(), order());

    // A^T = [[T^T, v], [u^T, d]] shares the Schur complement:
    // s = d - v^T T^-1 u = d - u^T T^-T v.
    std::vector<double> x(b.begin(), b.begin() +
                                         static_cast<ptrdiff_t>(n));
    bandSolveTransposed(x.data());
    if (band_.hasBorder()) {
        double uty = 0.0;
        for (size_t i = 0; i < n; ++i)
            uty += band_.borderCol(i) * x[i];
        const double xn = (b[n] - uty) / schur_;
        for (size_t i = 0; i < n; ++i)
            x[i] -= xn * border_wt_[i];
        x.push_back(xn);
    }
    return x;
}

double
BandedFactorization::determinant() const
{
    double det = 1.0;
    for (size_t i = 0; i < band_.bandOrder(); ++i)
        det /= band_.diag(i);
    if (band_.hasBorder())
        det *= schur_;
    return det;
}

double
BandedFactorization::reciprocalCondition() const
{
    if (rcond_ >= 0.0)
        return rcond_;
    const size_t n = order();
    if (norm1_ == 0.0 || n == 0) {
        rcond_ = 0.0;
        return rcond_;
    }

    // Hager's 1-norm estimator for ||A^-1||_1, identical to the
    // dense la/lu implementation but with O(n) solves.
    std::vector<double> x(n, 1.0 / static_cast<double>(n));
    double estimate = 0.0;
    for (int iter = 0; iter < 5; ++iter) {
        std::vector<double> y = solve(x);
        double y_norm = 0.0;
        for (double v : y)
            y_norm += std::fabs(v);
        if (!std::isfinite(y_norm)) {
            estimate = std::numeric_limits<double>::infinity();
            break;
        }
        if (iter > 0 && y_norm <= estimate)
            break;
        estimate = y_norm;

        std::vector<double> xi(n);
        for (size_t i = 0; i < n; ++i)
            xi[i] = y[i] >= 0.0 ? 1.0 : -1.0;
        std::vector<double> z = solveTransposed(xi);
        size_t j_max = 0;
        double z_max = 0.0;
        double zx = 0.0;
        for (size_t i = 0; i < n; ++i) {
            double mag = std::fabs(z[i]);
            if (mag > z_max) {
                z_max = mag;
                j_max = i;
            }
            zx += z[i] * x[i];
        }
        if (!std::isfinite(z_max) || z_max <= zx)
            break;
        std::fill(x.begin(), x.end(), 0.0);
        x[j_max] = 1.0;
    }

    rcond_ = estimate > 0.0 && std::isfinite(estimate)
        ? 1.0 / (norm1_ * estimate)
        : 0.0;
    return rcond_;
}

} // namespace nanobus
