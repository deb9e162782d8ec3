#include "la/dct.hh"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/logging.hh"

namespace nanobus {

namespace {

using Complex = Dct::Complex;

inline Complex
mul(Complex a, Complex b)
{
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
}

/** e^(iθ) for θ = 2π num / den, with num reduced first. */
Complex
unitRoot(size_t num, size_t den)
{
    const double theta = 2.0 * std::numbers::pi *
        static_cast<double>(num % den) / static_cast<double>(den);
    return {std::cos(theta), std::sin(theta)};
}

} // anonymous namespace

Dct::Dct(size_t n) : n_(n)
{
    if (n == 0)
        fatal("Dct: length must be positive");

    // Radix 2 first, then the odd primes ascending: the large odd
    // radices land in the innermost stages, which run with m = 1.
    std::vector<size_t> radices;
    size_t rest = n;
    while (rest % 2 == 0) {
        radices.push_back(2);
        rest /= 2;
    }
    for (size_t p = 3; p * p <= rest; p += 2) {
        while (rest % p == 0) {
            radices.push_back(p);
            rest /= p;
        }
    }
    if (rest > 1)
        radices.push_back(rest);

    size_t length = n;
    for (size_t radix : radices) {
        Stage stage{radix, length / radix, twiddles_.size(),
                    roots_.size()};
        // w^(q u) with w = e^(−2πi / length), q in [1, radix).
        for (size_t u = 0; u < stage.m; ++u) {
            for (size_t q = 1; q < radix; ++q) {
                const Complex r = unitRoot(q * u, length);
                twiddles_.push_back({r.re, -r.im});
            }
        }
        if (radix > 2) {
            for (size_t j = 0; j < radix; ++j)
                roots_.push_back(unitRoot(j, radix));
        }
        max_radix_ = std::max(max_radix_, radix);
        stages_.push_back(stage);
        length = stage.m;
    }

    rotation_.resize(n);
    for (size_t k = 0; k < n; ++k) {
        const double c = std::sqrt((k == 0 ? 1.0 : 2.0) /
                                   static_cast<double>(n));
        const double theta = -std::numbers::pi *
            static_cast<double>(k) / (2.0 * static_cast<double>(n));
        rotation_[k] = {c * std::cos(theta), c * std::sin(theta)};
    }
}

void
Dct::fft(const Complex *in, size_t stride, Complex *out, size_t stage,
         Complex *scratch) const
{
    const Stage &s = stages_[stage];
    if (s.m == 1) {
        for (size_t q = 0; q < s.radix; ++q)
            out[q] = in[q * stride];
    } else {
        for (size_t q = 0; q < s.radix; ++q)
            fft(in + q * stride, stride * s.radix, out + q * s.m,
                stage + 1, scratch);
    }
    if (s.radix == 2)
        butterfly2(s, out);
    else
        butterflyOdd(s, out, scratch);
}

void
Dct::butterfly2(const Stage &s, Complex *out) const
{
    const Complex *tw = twiddles_.data() + s.twiddle;
    for (size_t u = 0; u < s.m; ++u) {
        const Complex a = out[u];
        const Complex b = mul(out[u + s.m], tw[u]);
        out[u] = {a.re + b.re, a.im + b.im};
        out[u + s.m] = {a.re - b.re, a.im - b.im};
    }
}

void
Dct::butterflyOdd(const Stage &s, Complex *out,
                  Complex *scratch) const
{
    // p-point DFT with ω = e^(−2πi/p). Inputs q and p − q meet
    // outputs k and p − k as (x_q + x_{p−q}) cos θ ∓ i (x_q − x_{p−q})
    // sin θ, θ = 2π q k / p, so each output pair costs (p − 1) / 2
    // real products per component instead of p complex ones.
    const size_t p = s.radix;
    const size_t m = s.m;
    const size_t half = (p - 1) / 2;
    const Complex *tw = twiddles_.data() + s.twiddle;
    const Complex *root = roots_.data() + s.root;
    Complex *x = scratch;
    Complex *sum = scratch + p;
    Complex *dif = sum + half;

    for (size_t u = 0; u < m; ++u) {
        x[0] = out[u];
        for (size_t q = 1; q < p; ++q)
            x[q] = mul(out[q * m + u], tw[u * (p - 1) + q - 1]);
        Complex dc = x[0];
        for (size_t q = 1; q <= half; ++q) {
            const Complex a = x[q], b = x[p - q];
            sum[q - 1] = {a.re + b.re, a.im + b.im};
            dif[q - 1] = {a.re - b.re, a.im - b.im};
            dc.re += sum[q - 1].re;
            dc.im += sum[q - 1].im;
        }
        out[u] = dc;
        for (size_t k = 1; k <= half; ++k) {
            double ar = x[0].re, ai = x[0].im, br = 0.0, bi = 0.0;
            size_t j = 0;  // q k mod p
            for (size_t q = 1; q <= half; ++q) {
                j += k;
                if (j >= p)
                    j -= p;
                ar += sum[q - 1].re * root[j].re;
                ai += sum[q - 1].im * root[j].re;
                br += dif[q - 1].re * root[j].im;
                bi += dif[q - 1].im * root[j].im;
            }
            out[k * m + u] = {ar + bi, ai - br};
            out[(p - k) * m + u] = {ar - bi, ai + br};
        }
    }
}

void
Dct::reorderAndTransform(std::span<const double> x,
                         std::span<const double> y, Workspace &work) const
{
    if (x.size() != n_ || (!y.empty() && y.size() != n_))
        panic("Dct: input of %zu for a length-%zu transform", x.size(),
              n_);
    work.resize(2 * n_ + 2 * max_radix_);
    Complex *z = work.data();
    // Even-indexed samples ascending, odd-indexed ones descending.
    for (size_t i = 0; 2 * i < n_; ++i)
        z[i] = {x[2 * i], y.empty() ? 0.0 : y[2 * i]};
    for (size_t i = 0; 2 * i + 1 < n_; ++i)
        z[n_ - 1 - i] = {x[2 * i + 1], y.empty() ? 0.0 : y[2 * i + 1]};
    transform(work);
}

void
Dct::transform(Workspace &work) const
{
    Complex *z = work.data();
    if (stages_.empty())
        z[n_] = z[0];
    else
        fft(z, 1, z + n_, 0, z + 2 * n_);
}

void
Dct::forward(std::span<const double> x, std::span<double> out,
             Workspace &work) const
{
    if (out.size() != n_)
        panic("Dct::forward: output of %zu for length %zu", out.size(),
              n_);
    reorderAndTransform(x, {}, work);
    const Complex *v = work.data() + n_;
    for (size_t k = 0; k < n_; ++k)
        out[k] = rotation_[k].re * v[k].re - rotation_[k].im * v[k].im;
}

void
Dct::forward(std::span<const double> x, std::span<const double> y,
             std::span<double> x_out, std::span<double> y_out,
             Workspace &work) const
{
    if (y.size() != n_ || x_out.size() != n_ || y_out.size() != n_)
        panic("Dct::forward: pair sizes do not match length %zu", n_);
    reorderAndTransform(x, y, work);
    // Z = V + iU for the spectra V of x and U of y, both Hermitian:
    // V_k = (Z_k + conj Z_{n−k}) / 2, U_k = (Z_k − conj Z_{n−k}) / 2i.
    const Complex *z = work.data() + n_;
    for (size_t k = 0; k < n_; ++k) {
        const Complex a = z[k];
        const Complex b = z[k == 0 ? 0 : n_ - k];
        const Complex r = rotation_[k];
        const double vr = 0.5 * (a.re + b.re);
        const double vi = 0.5 * (a.im - b.im);
        const double ur = 0.5 * (a.im + b.im);
        const double ui = 0.5 * (b.re - a.re);
        x_out[k] = r.re * vr - r.im * vi;
        y_out[k] = r.re * ur - r.im * ui;
    }
}

void
Dct::inverse(std::span<const double> in, std::span<double> x,
             Workspace &work) const
{
    if (in.size() != n_ || x.size() != n_)
        panic("Dct::inverse: sizes %zu/%zu for length %zu", in.size(),
              x.size(), n_);
    work.resize(2 * n_ + 2 * max_radix_);
    // The real sequence v of the forward reordering has the spectrum
    // V_k = e^(iπk/2N) (X_k / c_k − i X_{N−k} / c_{N−k}). Its inverse
    // FFT is the real part of FFT(conj V) / N, so transform
    // conj V / N = (c_k e^(−iπk/2N) / 2) (X_k + i X_{N−k}) for k >= 1.
    Complex *w = work.data();
    w[0] = {rotation_[0].re * in[0], 0.0};
    for (size_t k = 1; k < n_; ++k)
        w[k] = mul({0.5 * rotation_[k].re, 0.5 * rotation_[k].im},
                   {in[k], in[n_ - k]});
    transform(work);
    const Complex *v = w + n_;
    for (size_t i = 0; 2 * i < n_; ++i)
        x[2 * i] = v[i].re;
    for (size_t i = 0; 2 * i + 1 < n_; ++i)
        x[2 * i + 1] = v[n_ - 1 - i].re;
}

} // namespace nanobus
