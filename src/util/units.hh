/**
 * @file
 * Physical constants, unit-conversion helpers, and the compile-time
 * dimensional-safety layer.
 *
 * nanobus works in SI units throughout: metres, seconds, kelvin,
 * joules, watts, farads, ohms. Quantities that the literature quotes
 * in scaled units (pF/m, nm, MA/cm^2, ...) are converted at the
 * boundary so that no module ever mixes unit systems internally.
 *
 * Since the pipeline chains farads, joules, watts, kelvin, volts, and
 * metres across five modules, a transposed argument pair or a J-vs-W
 * mixup used to compile cleanly and silently corrupt results. The
 * Quantity<Dim> strong type below makes those errors *compile errors*:
 *
 *  - multiply/divide compose dimensions (FaradsPerMeter * Meters is a
 *    Farads; Farads * Volts * Volts is a Joules),
 *  - add/subtract/compare require exactly matching dimensions,
 *  - construction from a raw double is explicit, and the only way
 *    back out is the explicit .raw() escape hatch.
 *
 * Quantity is zero-overhead: one double, trivially copyable, every
 * operation constexpr and inline. The linear-algebra and ODE layers
 * (la/, util/ode) deliberately stay on raw double vectors — they are
 * dimension-agnostic solvers — and bulk per-line buffers
 * (std::vector<double>) remain raw at those boundaries; scalar public
 * APIs of the physics modules carry the typed quantities.
 *
 * Literal suffixes (45_nm, 1.2_V, 110_K, ...) live in
 * nanobus::units::literals; import them with
 * `using namespace nanobus::units::literals;` in implementation files
 * (never in headers — tools/nbcheck's `using-namespace` rule
 * enforces this).
 */

#ifndef NANOBUS_UTIL_UNITS_HH
#define NANOBUS_UTIL_UNITS_HH

#include <compare>

namespace nanobus {

/**
 * Exponents of the five SI base dimensions nanobus uses (metre,
 * kilogram, second, ampere, kelvin). A Dimension is a pure type-level
 * vector; arithmetic on Quantity composes these exponents.
 */
template <int MetreE, int KilogramE, int SecondE, int AmpereE,
          int KelvinE>
struct Dimension
{
    static constexpr int metre = MetreE;
    static constexpr int kilogram = KilogramE;
    static constexpr int second = SecondE;
    static constexpr int ampere = AmpereE;
    static constexpr int kelvin = KelvinE;
};

/** Dimension of a product of two quantities. */
template <typename A, typename B>
using DimProduct = Dimension<A::metre + B::metre,
                             A::kilogram + B::kilogram,
                             A::second + B::second,
                             A::ampere + B::ampere,
                             A::kelvin + B::kelvin>;

/** Dimension of a quotient of two quantities. */
template <typename A, typename B>
using DimQuotient = Dimension<A::metre - B::metre,
                              A::kilogram - B::kilogram,
                              A::second - B::second,
                              A::ampere - B::ampere,
                              A::kelvin - B::kelvin>;

/** The trivial dimension: plain numbers. */
using Dimensionless = Dimension<0, 0, 0, 0, 0>;

template <typename Dim>
class Quantity;

/**
 * Maps a result dimension to its representation: Quantity<Dim> in
 * general, but a plain double when every exponent cancels — so
 * ratios like length/length come back as ordinary numbers.
 */
template <typename Dim>
struct QuantityRep
{
    using type = Quantity<Dim>;
};

template <>
struct QuantityRep<Dimensionless>
{
    using type = double;
};

template <typename Dim>
using QuantityOrDouble = typename QuantityRep<Dim>::type;

/**
 * A double tagged with a compile-time dimension.
 *
 * The stored value is always in unscaled SI units of the dimension
 * (metres, not nanometres; A/m^2, not A/cm^2). Construction from raw
 * doubles is explicit; use the literal suffixes or conversion helpers
 * at input boundaries and .raw() where a value exits to a
 * dimension-agnostic solver or writer.
 */
template <typename Dim>
class Quantity
{
  public:
    /** The Dimension<...> this quantity carries. */
    using dims = Dim;

    /** Zero. */
    constexpr Quantity() = default;

    /** Tag a raw SI value; deliberately explicit. */
    explicit constexpr Quantity(double raw) : raw_(raw) {}

    /** The raw SI value — the escape hatch to solver/writer code. */
    constexpr double raw() const { return raw_; }

    constexpr Quantity operator-() const { return Quantity(-raw_); }
    constexpr Quantity operator+() const { return *this; }

    constexpr Quantity operator+(Quantity o) const
    {
        return Quantity(raw_ + o.raw_);
    }

    constexpr Quantity operator-(Quantity o) const
    {
        return Quantity(raw_ - o.raw_);
    }

    constexpr Quantity &operator+=(Quantity o)
    {
        raw_ += o.raw_;
        return *this;
    }

    constexpr Quantity &operator-=(Quantity o)
    {
        raw_ -= o.raw_;
        return *this;
    }

    constexpr Quantity &operator*=(double s)
    {
        raw_ *= s;
        return *this;
    }

    constexpr Quantity &operator/=(double s)
    {
        raw_ /= s;
        return *this;
    }

    constexpr auto operator<=>(const Quantity &) const = default;

  private:
    double raw_ = 0.0;
};

/** Scale by a dimensionless factor (either side). */
template <typename D>
constexpr Quantity<D>
operator*(Quantity<D> q, double s)
{
    return Quantity<D>(q.raw() * s);
}

template <typename D>
constexpr Quantity<D>
operator*(double s, Quantity<D> q)
{
    return Quantity<D>(s * q.raw());
}

template <typename D>
constexpr Quantity<D>
operator/(Quantity<D> q, double s)
{
    return Quantity<D>(q.raw() / s);
}

/** double / quantity inverts the dimension. */
template <typename D>
constexpr QuantityOrDouble<DimQuotient<Dimensionless, D>>
operator/(double s, Quantity<D> q)
{
    return QuantityOrDouble<DimQuotient<Dimensionless, D>>{
        s / q.raw()};
}

/** Products and quotients compose dimensions. */
template <typename D1, typename D2>
constexpr QuantityOrDouble<DimProduct<D1, D2>>
operator*(Quantity<D1> a, Quantity<D2> b)
{
    return QuantityOrDouble<DimProduct<D1, D2>>{a.raw() * b.raw()};
}

template <typename D1, typename D2>
constexpr QuantityOrDouble<DimQuotient<D1, D2>>
operator/(Quantity<D1> a, Quantity<D2> b)
{
    return QuantityOrDouble<DimQuotient<D1, D2>>{a.raw() / b.raw()};
}

// --- Domain aliases -----------------------------------------------------
//
// The aliases below name every dimension the paper's pipeline passes
// between modules. Derived dimensions follow from the SI definitions,
// e.g. F = A^2 s^4 / (kg m^2) and W = kg m^2 / s^3.

/** Length [m]. */
using Meters = Quantity<Dimension<1, 0, 0, 0, 0>>;
/** Area [m^2]. */
using SquareMeters = Quantity<Dimension<2, 0, 0, 0, 0>>;
/** Time [s]. */
using Seconds = Quantity<Dimension<0, 0, 1, 0, 0>>;
/** Frequency [1/s]. */
using Hertz = Quantity<Dimension<0, 0, -1, 0, 0>>;
/** Absolute temperature [K]. */
using Kelvin = Quantity<Dimension<0, 0, 0, 0, 1>>;
/** Electric potential [V]. */
using Volts = Quantity<Dimension<2, 1, -3, -1, 0>>;
/** Current [A]. */
using Amps = Quantity<Dimension<0, 0, 0, 1, 0>>;
/** Resistance [ohm]. */
using Ohms = Quantity<Dimension<2, 1, -3, -2, 0>>;
/** Per-unit-length resistance [ohm/m]. */
using OhmsPerMeter = Quantity<Dimension<1, 1, -3, -2, 0>>;
/** Resistivity [ohm m]. */
using OhmMeters = Quantity<Dimension<3, 1, -3, -2, 0>>;
/** Capacitance [F]. */
using Farads = Quantity<Dimension<-2, -1, 4, 2, 0>>;
/** Per-unit-length capacitance [F/m]. */
using FaradsPerMeter = Quantity<Dimension<-3, -1, 4, 2, 0>>;
/** Energy [J]. */
using Joules = Quantity<Dimension<2, 1, -2, 0, 0>>;
/** Power [W]. */
using Watts = Quantity<Dimension<2, 1, -3, 0, 0>>;
/** Per-unit-length power [W/m], the thermal network's drive unit. */
using WattsPerMeter = Quantity<Dimension<1, 1, -3, 0, 0>>;
/** Heat flux [W/m^2]. */
using WattsPerSquareMeter = Quantity<Dimension<0, 1, -3, 0, 0>>;
/** Thermal conductivity [W/(m K)]. */
using WattsPerMeterKelvin = Quantity<Dimension<1, 1, -3, 0, -1>>;
/** Absolute thermal resistance [K/W]. */
using KelvinPerWatt = Quantity<Dimension<-2, -1, 3, 0, 1>>;
/** Per-unit-length thermal resistance [K m / W]. */
using KelvinMetersPerWatt = Quantity<Dimension<-1, -1, 3, 0, 1>>;
/** Heat capacity [J/K]. */
using JoulesPerKelvin = Quantity<Dimension<2, 1, -2, 0, -1>>;
/** Per-unit-length heat capacity [J/(K m)]. */
using JoulesPerKelvinMeter = Quantity<Dimension<1, 1, -2, 0, -1>>;
/** Volumetric heat capacity [J/(K m^3)]. */
using JoulesPerKelvinCubicMeter = Quantity<Dimension<-1, 1, -2, 0, -1>>;
/** Current density, stored in SI [A/m^2]. */
using AmpsPerSquareMeter = Quantity<Dimension<-2, 0, 0, 1, 0>>;
/**
 * Current density as the paper quotes it. The *storage* is SI A/m^2
 * (dimensionally A/cm^2 and A/m^2 are the same thing); build values
 * from literature numbers with units::ampsPerCm2() or the _MA_cm2
 * literal so the 1e4 scale never appears at call sites.
 */
using AmpsPerCm2 = AmpsPerSquareMeter;

static_assert(sizeof(Meters) == sizeof(double),
              "Quantity must stay a bare double");

namespace units {

/** Vacuum permittivity [F/m]. */
inline constexpr double epsilon0 = 8.8541878128e-12;

/** Resistivity of interconnect copper at operating temp [ohm * m]. */
inline constexpr double rho_copper = 2.2e-8;

/**
 * Volumetric specific heat of copper [J/(m^3 * K)].
 * rho = 8960 kg/m^3, c_p = 385 J/(kg K).
 */
inline constexpr double cs_copper = 3.45e6;

/** Temperature coefficient of resistivity for copper [1/K]. */
inline constexpr double tcr_copper = 3.9e-3;

/** Thermal conductivity of copper [W/(m K)]. */
inline constexpr double k_copper = 400.0;

/** Celsius-to-kelvin offset. */
inline constexpr double kelvin_offset = 273.15;

/** Convert nanometres to metres. */
inline constexpr double
fromNm(double nm)
{
    return nm * 1e-9;
}

/** Convert micrometres to metres. */
inline constexpr double
fromUm(double um)
{
    return um * 1e-6;
}

/** Convert millimetres to metres. */
inline constexpr double
fromMm(double mm)
{
    return mm * 1e-3;
}

/** Convert picofarads-per-metre to farads-per-metre. */
inline constexpr double
fromPfPerM(double picofarads_per_metre)
{
    return picofarads_per_metre * 1e-12;
}

/** Convert kilo-ohms-per-metre to ohms-per-metre. */
inline constexpr double
fromKohmPerM(double kiloohms_per_metre)
{
    return kiloohms_per_metre * 1e3;
}

/** Convert gigahertz to hertz. */
inline constexpr double
fromGhz(double ghz)
{
    return ghz * 1e9;
}

/** Convert MA/cm^2 to A/m^2. */
inline constexpr double
fromMaPerCm2(double ma_per_cm2)
{
    return ma_per_cm2 * 1e10;
}

/** Convert degrees Celsius to kelvin. */
inline constexpr double
fromCelsius(double celsius)
{
    return celsius + kelvin_offset;
}

// --- Typed boundary constructors ---------------------------------------

/** Degrees Celsius as an absolute Kelvin quantity. */
inline constexpr Kelvin
celsius(double degrees_celsius)
{
    return Kelvin{degrees_celsius + kelvin_offset};
}

/** Literature current density [A/cm^2] as an SI quantity. */
inline constexpr AmpsPerCm2
ampsPerCm2(double a_per_cm2)
{
    return AmpsPerCm2{a_per_cm2 * 1e4};
}

/** Literature per-length capacitance [pF/m] as an SI quantity. */
inline constexpr FaradsPerMeter
picofaradsPerMeter(double picofarads_per_metre)
{
    return FaradsPerMeter{picofarads_per_metre * 1e-12};
}

namespace literals {

// Each suffix has a long-double overload (1.2_V) and an integer
// overload (45_nm). Values land in unscaled SI units.

// Length.
constexpr Meters operator""_m(long double v)
{
    return Meters{static_cast<double>(v)};
}
constexpr Meters operator""_m(unsigned long long v)
{
    return Meters{static_cast<double>(v)};
}
constexpr Meters operator""_mm(long double v)
{
    return Meters{static_cast<double>(v) * 1e-3};
}
constexpr Meters operator""_mm(unsigned long long v)
{
    return Meters{static_cast<double>(v) * 1e-3};
}
constexpr Meters operator""_um(long double v)
{
    return Meters{static_cast<double>(v) * 1e-6};
}
constexpr Meters operator""_um(unsigned long long v)
{
    return Meters{static_cast<double>(v) * 1e-6};
}
constexpr Meters operator""_nm(long double v)
{
    return Meters{static_cast<double>(v) * 1e-9};
}
constexpr Meters operator""_nm(unsigned long long v)
{
    return Meters{static_cast<double>(v) * 1e-9};
}

// Time.
constexpr Seconds operator""_s(long double v)
{
    return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_s(unsigned long long v)
{
    return Seconds{static_cast<double>(v)};
}
constexpr Seconds operator""_ms(long double v)
{
    return Seconds{static_cast<double>(v) * 1e-3};
}
constexpr Seconds operator""_ms(unsigned long long v)
{
    return Seconds{static_cast<double>(v) * 1e-3};
}
constexpr Seconds operator""_ns(long double v)
{
    return Seconds{static_cast<double>(v) * 1e-9};
}
constexpr Seconds operator""_ns(unsigned long long v)
{
    return Seconds{static_cast<double>(v) * 1e-9};
}

// Frequency.
constexpr Hertz operator""_Hz(long double v)
{
    return Hertz{static_cast<double>(v)};
}
constexpr Hertz operator""_Hz(unsigned long long v)
{
    return Hertz{static_cast<double>(v)};
}
constexpr Hertz operator""_GHz(long double v)
{
    return Hertz{static_cast<double>(v) * 1e9};
}
constexpr Hertz operator""_GHz(unsigned long long v)
{
    return Hertz{static_cast<double>(v) * 1e9};
}

// Temperature (absolute).
constexpr Kelvin operator""_K(long double v)
{
    return Kelvin{static_cast<double>(v)};
}
constexpr Kelvin operator""_K(unsigned long long v)
{
    return Kelvin{static_cast<double>(v)};
}

// Electrical.
constexpr Volts operator""_V(long double v)
{
    return Volts{static_cast<double>(v)};
}
constexpr Volts operator""_V(unsigned long long v)
{
    return Volts{static_cast<double>(v)};
}
constexpr Ohms operator""_ohm(long double v)
{
    return Ohms{static_cast<double>(v)};
}
constexpr Ohms operator""_ohm(unsigned long long v)
{
    return Ohms{static_cast<double>(v)};
}
constexpr Farads operator""_F(long double v)
{
    return Farads{static_cast<double>(v)};
}
constexpr Farads operator""_F(unsigned long long v)
{
    return Farads{static_cast<double>(v)};
}
constexpr Farads operator""_pF(long double v)
{
    return Farads{static_cast<double>(v) * 1e-12};
}
constexpr Farads operator""_pF(unsigned long long v)
{
    return Farads{static_cast<double>(v) * 1e-12};
}
constexpr Farads operator""_fF(long double v)
{
    return Farads{static_cast<double>(v) * 1e-15};
}
constexpr Farads operator""_fF(unsigned long long v)
{
    return Farads{static_cast<double>(v) * 1e-15};
}

// Energy and power.
constexpr Joules operator""_J(long double v)
{
    return Joules{static_cast<double>(v)};
}
constexpr Joules operator""_J(unsigned long long v)
{
    return Joules{static_cast<double>(v)};
}
constexpr Joules operator""_pJ(long double v)
{
    return Joules{static_cast<double>(v) * 1e-12};
}
constexpr Joules operator""_pJ(unsigned long long v)
{
    return Joules{static_cast<double>(v) * 1e-12};
}
constexpr Watts operator""_W(long double v)
{
    return Watts{static_cast<double>(v)};
}
constexpr Watts operator""_W(unsigned long long v)
{
    return Watts{static_cast<double>(v)};
}

// Current density, quoted as the paper does (MA/cm^2).
constexpr AmpsPerCm2 operator""_MA_cm2(long double v)
{
    return ampsPerCm2(static_cast<double>(v) * 1e6);
}
constexpr AmpsPerCm2 operator""_MA_cm2(unsigned long long v)
{
    return ampsPerCm2(static_cast<double>(v) * 1e6);
}

} // namespace literals
} // namespace units
} // namespace nanobus

#endif // NANOBUS_UTIL_UNITS_HH
