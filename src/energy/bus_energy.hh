/**
 * @file
 * Per-line bus energy dissipation model (Sec 3 of the paper).
 *
 * For each bus word transition the model computes the energy
 * dissipated in every individual line — the paper's key departure
 * from whole-bus models like Sotiriadis & Chandrakasan:
 *
 *   E_i = 0.5 (c_line_i L + C_rep) Vdd^2            if line i moves
 *       + sum_j 0.5 c_ij L (V_i^2 - V_i V_j) Vdd^2  over neighbors j
 *
 * with V in units of Vdd. The coupling sum ranges over a configurable
 * neighbor radius: 0 reproduces self-only models, 1 the
 * nearest-neighbor models of prior work ("NN" in Fig 3), and
 * width-1 the paper's full model ("All").
 */

#ifndef NANOBUS_ENERGY_BUS_ENERGY_HH
#define NANOBUS_ENERGY_BUS_ENERGY_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "energy/transition.hh"
#include "extraction/capmatrix.hh"
#include "tech/technology.hh"
#include "util/result.hh"
#include "util/units.hh"

namespace nanobus {

class PackedTransitionCounts;

/** Self/coupling split of an energy quantity. */
struct EnergyBreakdown
{
    /** Energy in line self capacitance (incl. repeater load). */
    Joules self;
    /** Energy in inter-wire coupling capacitance. */
    Joules coupling;

    /** Combined energy. */
    Joules total() const { return self + coupling; }

    EnergyBreakdown &operator+=(const EnergyBreakdown &o)
    {
        self += o.self;
        coupling += o.coupling;
        return *this;
    }
};

/**
 * Stateful per-line energy model for one bus.
 */
class BusEnergyModel
{
  public:
    /** Model configuration. */
    struct Config
    {
        /** Physical wire length; the paper targets global buses. */
        Meters wire_length{0.010};
        /**
         * Coupling neighbor radius: 0 = self energy only, 1 = nearest
         * neighbor, >= width-1 = all pairs. Values are clamped to
         * width-1.
         */
        unsigned coupling_radius = 64;
        /** Model repeater capacitance on each line (Sec 3.1.1). */
        bool include_repeaters = true;
        /** Initial word held on the bus. */
        uint64_t initial_word = 0;
        /**
         * Transition kernel. Packed, the default, accumulates exact
         * integer transition counts over bit-packed 64-cycle blocks
         * (energy/packed.hh) and derives energies from the counts.
         * Scalar is the plain per-word FP loop, kept as the oracle
         * tests pin Packed against. Packed results are bit-identical
         * under any batching of the same word sequence, but not
         * bitwise comparable to Scalar (different FP summation
         * order; they agree to rounding — see docs/PIPELINE.md).
         */
        TransitionKernel kernel = TransitionKernel::Packed;
    };

    /**
     * @param tech Technology node (supplies Vdd and repeater load).
     * @param caps Per-unit-length capacitance structure; its size
     *             fixes the bus width (<= 64).
     * @param config Model configuration.
     */
    BusEnergyModel(const TechnologyNode &tech,
                   const CapacitanceMatrix &caps);
    BusEnergyModel(const TechnologyNode &tech,
                   const CapacitanceMatrix &caps,
                   const Config &config);
    ~BusEnergyModel();

    /** Bus width in lines. */
    unsigned width() const { return width_; }

    /** Kernel this model evaluates transitions with. */
    TransitionKernel kernel() const { return kernel_; }

    /** Effective coupling radius after clamping. */
    unsigned couplingRadius() const { return radius_; }

    /** Word currently held on the bus. */
    uint64_t lastWord() const { return last_word_; }

    /** Total self capacitance (line + repeaters) of line i. */
    Farads selfCapacitance(unsigned i) const;

    /** Coupling capacitance between lines i and j over the length. */
    Farads couplingCapacitance(unsigned i, unsigned j) const;

    /**
     * Energies dissipated in each line by the transition prev->next,
     * in either kernel: one ascending-j coupling sum per moving line.
     * Leaves the held word and every accumulator alone; afterwards
     * lastBreakdown()/lastLineEnergy() describe this transition.
     * Returns a reference to an internal buffer, valid until the
     * next call.
     */
    const std::vector<double> &transitionEnergy(uint64_t prev,
                                                uint64_t next);

    /**
     * Self/coupling breakdown of the last transition: that of the
     * last transitionEnergy() call, or the final word a step(),
     * stepBatch() or restore clocked in. Evaluated on each call.
     */
    EnergyBreakdown lastBreakdown() const;

    /** Per-line energies [J] of the same transition. */
    std::vector<double> lastLineEnergy() const;

    /**
     * Clock in the next word: computes the transition energy from the
     * held word, accumulates per-line and breakdown totals, and
     * latches `next`. Returns the total energy of this transition.
     */
    Joules step(uint64_t next);

    /**
     * Clock in a run of words — equivalent to one step() per word —
     * while also accumulating each transition's per-line energies
     * into the caller's SoA scratch `interval_line_acc` (size ==
     * width()) and its breakdown into `interval_acc`.
     *
     * This is the batched hot path: the caller's interval
     * bookkeeping moves out of the per-word loop into this one tight
     * pass, and every accumulator receives the exact per-word
     * addition sequence of the per-record path, so the results are
     * bit-identical (pinned by tests/sim/test_pipeline_batch.cc).
     * After the call, lastBreakdown()/lastLineEnergy() describe the
     * final transition of the run.
     *
     * Under the Packed kernel the caller's interval accumulators are
     * deliberately NOT touched: interval energies are derived from
     * the count state instead — call beginInterval() at each
     * interval start and intervalEnergy() at each close
     * (fabric/bus_sim.cc does). Packed only counts here; the
     * whole-run accumulators derive from the counts when read.
     */
    void stepBatch(std::span<const uint64_t> words,
                   std::span<double> interval_line_acc,
                   EnergyBreakdown &interval_acc);

    /** Cycles step()ed since the last reset. */
    uint64_t cycles() const { return cycles_; }

    /**
     * Accumulated per-line energies [J] since the last reset. Packed
     * derives them from the counts on each call (O(width x radius)),
     * so read them once per observation, not once per line.
     */
    std::vector<double> accumulatedLineEnergy() const;

    /** Accumulated bus-total breakdown since the last reset (derived
     *  on each call under Packed, like accumulatedLineEnergy()). */
    EnergyBreakdown accumulatedBreakdown() const;

    /** Accumulated bus-total energy. */
    Joules accumulatedTotal() const
    {
        return accumulatedBreakdown().total();
    }

    /** Clear accumulators (keeps the held word). */
    void resetAccumulation();

    /**
     * Restore the full mutable state (held word + accumulators)
     * captured from an identically configured model, for
     * checkpoint/resume (sim/snapshot.hh). Further step() calls are
     * bit-identical to a model that never stopped. InvalidArgument
     * when `acc_line` does not match the bus width.
     */
    [[nodiscard]] Status restoreAccumulation(
        uint64_t last_word, const std::vector<double> &acc_line,
        const EnergyBreakdown &acc, uint64_t cycles);

    /**
     * Packed kernel only: latch the current count state as the open
     * interval's baseline. Subsequent intervalEnergy() calls report
     * energies accumulated since this point. No-op under Scalar
     * (scalar interval accounting lives in the stepBatch spans).
     */
    void beginInterval();

    /**
     * Packed kernel only (panics under Scalar): derive the open
     * interval's per-line energies [J] into `line_out` (size ==
     * width()) and its breakdown into `out`, from the count deltas
     * since the last beginInterval().
     */
    void intervalEnergy(std::span<double> line_out,
                        EnergyBreakdown &out) const;

    /**
     * Full mutable state of the Packed kernel, for checkpoint/resume
     * (fabric/bus_snapshot.cc). Energies are deliberately absent:
     * they are derived from the restored counts when read, which is
     * what keeps resumed runs bit-identical.
     */
    struct PackedState
    {
        uint64_t last_word = 0;
        /** Word held before the final recorded transition (feeds
         *  lastBreakdown()/lastLineEnergy()). */
        uint64_t final_prev_word = 0;
        uint64_t cycles = 0;
        std::vector<uint64_t> self;
        std::vector<int64_t> pairs;
        std::vector<uint64_t> interval_self;
        std::vector<int64_t> interval_pairs;
    };

    /** Packed kernel only (panics under Scalar). */
    PackedState capturePackedState() const;

    /**
     * Packed-kernel counterpart of restoreAccumulation():
     * InvalidArgument when the payload shape does not match this
     * model (or when the model is Scalar).
     */
    [[nodiscard]] Status restorePackedState(const PackedState &state);

  private:
    void deriveEnergies(const uint64_t *self_base,
                        const int64_t *pair_base,
                        std::span<double> line_out,
                        EnergyBreakdown &out) const;
    /** The per-line loop: writes every line of `line` and returns
     *  the breakdown. */
    EnergyBreakdown evaluate(uint64_t prev, uint64_t next,
                             std::span<double> line) const;
    /** Packed: clock `words` into the counts. */
    void countWords(std::span<const uint64_t> words);
    unsigned width_;
    unsigned radius_;
    double half_vdd2_;         // 0.5 * Vdd^2
    uint64_t last_word_;
    uint64_t word_mask_;

    std::vector<double> self_cap_;     // per line, full length [F]
    /** Per pair, full length [F]; 0.0 on the diagonal and beyond the
     *  radius. */
    Matrix coupling_cap_;

    std::vector<double> line_energy_;  // scratch, per line [J]
    /** The transition lastBreakdown()/lastLineEnergy() describe
     *  (Packed snapshots carry last_prev_ as `final_prev_word`). */
    uint64_t last_prev_ = 0;
    uint64_t last_next_ = 0;

    // Whole-run accumulators (Scalar; Packed derives from counts_).
    std::vector<double> acc_line_;
    EnergyBreakdown acc_;
    uint64_t cycles_ = 0;

    // Packed-kernel state (null / empty under Scalar).
    TransitionKernel kernel_ = TransitionKernel::Scalar;
    std::unique_ptr<PackedTransitionCounts> counts_;
    /** Count snapshot at the open interval's start. */
    std::vector<uint64_t> interval_self_base_;
    std::vector<int64_t> interval_pair_base_;
};

} // namespace nanobus

#endif // NANOBUS_ENERGY_BUS_ENERGY_HH
