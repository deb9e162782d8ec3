/**
 * @file
 * Orthonormal DCT-II / DCT-III pair of any length N >= 1.
 *
 * The DCT-II diagonalizes the path Laplacian with Neumann ends, which
 * is what makes the thermal bus network's exact interval update
 * (src/thermal/network.cc) a per-mode scalar update.
 *
 * Both directions run through one N-point complex FFT with Makhoul's
 * reordering (IEEE Trans. ASSP 28(1), 1980): the even-indexed inputs
 * ascending, then the odd-indexed ones descending, transformed and
 * rotated by e^(−iπk/2N). The FFT is mixed-radix decimation in time
 * over N's prime factors: radix 2, and every odd prime through one
 * symmetric butterfly that pairs outputs k and p − k. The cost is
 * O(N · Σ p_i) — O(N log N) for smooth N such as 32 or 10000 = 2⁴·5⁴,
 * O(N²) only for a prime N. Stage twiddles and butterfly roots are
 * precomputed at construction.
 *
 * With c_0 = √(1/N) and c_k = √(2/N):
 *
 *     forward:  X_k = c_k Σ_n x_n cos(π k (2n + 1) / 2N)
 *     inverse:  x_n = Σ_k c_k X_k cos(π k (2n + 1) / 2N)
 *
 * The transforms are const and thread-safe; every call works in a
 * caller-owned Workspace, sized on first use, so repeated calls do
 * not allocate.
 */

#ifndef NANOBUS_LA_DCT_HH
#define NANOBUS_LA_DCT_HH

#include <cstddef>
#include <span>
#include <vector>

namespace nanobus {

class Dct
{
  public:
    /** Complex value of the FFT stages (products are written out by
     *  hand: std::complex's operator* takes the slow Annex G path). */
    struct Complex
    {
        double re = 0.0;
        double im = 0.0;
    };

    /** Scratch for transform calls; grown on first use. */
    using Workspace = std::vector<Complex>;

    /** @param n Transform length (>= 1). */
    explicit Dct(size_t n);

    /** Transform length. */
    size_t size() const { return n_; }

    /** out = DCT-II of x. */
    void forward(std::span<const double> x, std::span<double> out,
                 Workspace &work) const;

    /**
     * DCT-II of two real vectors for the price of one complex FFT:
     * x rides in the real part, y in the imaginary part, and the two
     * spectra are separated by conjugate symmetry.
     */
    void forward(std::span<const double> x, std::span<const double> y,
                 std::span<double> x_out, std::span<double> y_out,
                 Workspace &work) const;

    /** x = DCT-III of in (the inverse of forward()). */
    void inverse(std::span<const double> in, std::span<double> x,
                 Workspace &work) const;

  private:
    /** One decimation-in-time stage: `radix` sub-transforms of
     *  length `m`, recombined by radix-point butterflies. */
    struct Stage
    {
        size_t radix;
        size_t m;
        size_t twiddle;  // offset of this stage's w^(q u) in twiddles_
        size_t root;     // offset of this stage's e^(−2πij/p) in roots_
    };

    /** out = FFT of the `stride`-spaced input, from stage `stage` on. */
    void fft(const Complex *in, size_t stride, Complex *out,
             size_t stage, Complex *scratch) const;
    void butterfly2(const Stage &s, Complex *out) const;
    void butterflyOdd(const Stage &s, Complex *out,
                      Complex *scratch) const;

    /** Makhoul reorder of (x, y) into work[0, n), FFT into
     *  work[n, 2n). */
    void reorderAndTransform(std::span<const double> x,
                             std::span<const double> y,
                             Workspace &work) const;

    /** FFT of work[0, n) into work[n, 2n). */
    void transform(Workspace &work) const;

    size_t n_;
    size_t max_radix_ = 1;
    std::vector<Stage> stages_;
    std::vector<Complex> twiddles_;
    std::vector<Complex> roots_;
    /** c_k e^(−iπk/2N): the forward post-rotation; halved for
     *  k >= 1, also the inverse pre-rotation (the 1/N of the inverse
     *  FFT folded in). */
    std::vector<Complex> rotation_;
};

} // namespace nanobus

#endif // NANOBUS_LA_DCT_HH
