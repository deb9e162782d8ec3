/**
 * @file
 * Tests for la/dct.hh: the FFT-based orthonormal DCT-II/DCT-III pair
 * against the O(N²) definition (evaluated in long double) at lengths
 * covering every butterfly — 1, powers of two, odd primes, mixed
 * radices — and the round trip at wide-bus lengths.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "la/dct.hh"
#include "util/random.hh"

namespace nanobus {
namespace {

std::vector<double>
randomVector(size_t n, uint64_t seed)
{
    Rng rng(seed);
    std::vector<double> v(n);
    for (double &x : v)
        x = rng.uniform(-1.0, 1.0);
    return v;
}

/** The O(N²) definition in long double: basis(k, j) =
 *  c_k cos(π k (2j + 1) / 2N), read from a table of cos(π m / 2N)
 *  over m = k (2j + 1) mod 4N. */
class Definition
{
  public:
    explicit Definition(size_t n) : n_(n), cos_(4 * n)
    {
        for (size_t m = 0; m < 4 * n; ++m)
            cos_[m] = std::cos(std::numbers::pi_v<long double> *
                               static_cast<long double>(m) /
                               (2.0L * static_cast<long double>(n)));
    }

    long double basis(size_t k, size_t j) const
    {
        const long double c = std::sqrt((k == 0 ? 1.0L : 2.0L) /
                                        static_cast<long double>(n_));
        return c * cos_[k * (2 * j + 1) % (4 * n_)];
    }

    std::vector<double> forward(const std::vector<double> &x) const
    {
        std::vector<double> out(n_);
        for (size_t k = 0; k < n_; ++k) {
            long double acc = 0.0L;
            for (size_t j = 0; j < n_; ++j)
                acc += basis(k, j) * x[j];
            out[k] = static_cast<double>(acc);
        }
        return out;
    }

    std::vector<double> inverse(const std::vector<double> &in) const
    {
        std::vector<double> x(n_);
        for (size_t j = 0; j < n_; ++j) {
            long double acc = 0.0L;
            for (size_t k = 0; k < n_; ++k)
                acc += basis(k, j) * in[k];
            x[j] = static_cast<double>(acc);
        }
        return x;
    }

  private:
    size_t n_;
    std::vector<long double> cos_;
};

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    double worst = 0.0;
    for (size_t i = 0; i < a.size(); ++i)
        worst = std::max(worst, std::fabs(a[i] - b[i]));
    return worst;
}

TEST(Dct, MatchesDefinition)
{
    for (size_t n : {1, 2, 3, 7, 31, 32, 33, 48, 64, 1000}) {
        SCOPED_TRACE(n);
        const Dct dct(n);
        const Definition def(n);
        EXPECT_EQ(dct.size(), n);
        Dct::Workspace work;
        const std::vector<double> x = randomVector(n, 11 + n);
        const std::vector<double> y = randomVector(n, 97 + n);
        // Rounding grows like log N for the FFT; inputs are O(1).
        const double tol = 1e-14 * (4.0 + std::log2(double(n)));

        std::vector<double> fx(n), fy(n), px(n), py(n), ix(n);
        dct.forward(x, fx, work);
        EXPECT_LE(maxAbsDiff(fx, def.forward(x)), tol);

        // The two-at-once forward matches each single one.
        dct.forward(x, y, px, py, work);
        EXPECT_LE(maxAbsDiff(px, def.forward(x)), tol);
        EXPECT_LE(maxAbsDiff(py, def.forward(y)), tol);

        dct.inverse(x, ix, work);
        EXPECT_LE(maxAbsDiff(ix, def.inverse(x)), tol);
    }
}

TEST(Dct, RoundTripAtWideBusLengths)
{
    for (size_t n : {4096, 10000}) {
        SCOPED_TRACE(n);
        const Dct dct(n);
        Dct::Workspace work;
        const std::vector<double> x = randomVector(n, n);
        std::vector<double> modes(n), back(n);
        dct.forward(x, modes, work);
        dct.inverse(modes, back, work);
        EXPECT_LE(maxAbsDiff(back, x), 1e-13);

        // Orthonormal: the transform preserves the 2-norm.
        double ex = 0.0, em = 0.0;
        for (size_t i = 0; i < n; ++i) {
            ex += x[i] * x[i];
            em += modes[i] * modes[i];
        }
        EXPECT_NEAR(em, ex, 1e-12 * ex);
    }
}

TEST(Dct, DiagonalizesTheNeumannPathLaplacian)
{
    // L = tridiag(-1, 2, -1) with 1 on both ends: the k-th DCT-II
    // basis vector is an eigenvector with eigenvalue 2 - 2cos(πk/N).
    const size_t n = 33;
    const Dct dct(n);
    Dct::Workspace work;
    for (size_t k : {0, 1, 16, 32}) {
        SCOPED_TRACE(k);
        std::vector<double> unit(n, 0.0), v(n);
        unit[k] = 1.0;
        dct.inverse(unit, v, work);
        const double lambda =
            2.0 - 2.0 * std::cos(std::numbers::pi * double(k) /
                                 double(n));
        for (size_t i = 0; i < n; ++i) {
            double lv = 2.0 * v[i];
            lv -= i > 0 ? v[i - 1] : v[i];
            lv -= i + 1 < n ? v[i + 1] : v[i];
            EXPECT_NEAR(lv, lambda * v[i], 1e-14) << i;
        }
    }
}

} // anonymous namespace
} // namespace nanobus
