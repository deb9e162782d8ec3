/**
 * @file
 * Bit-packed transition counting for the batched energy path.
 *
 * The paper's energy model (Sec 3) is a pure function of per-line
 * self-transition counts and per-pair coupling-event counts. The
 * packed kernel exploits that: instead of evaluating FP energies word
 * by word, it accumulates *exact integer* counts over 64-cycle blocks
 * of bus words — self counts as popcounts of transition lanes, pair
 * deviations from the lane classification in energy/transition.hh.
 * BusEnergyModel derives energies from the counts only where they are
 * read: the whole-run accumulators in its accessors, interval
 * energies at each interval close. Integer accumulation is
 * associative, so the counts — and every energy derived from them —
 * are bit-identical under any batch/block/pool split
 * (docs/PIPELINE.md, "Scalar/packed equivalence contract").
 */

#ifndef NANOBUS_ENERGY_PACKED_HH
#define NANOBUS_ENERGY_PACKED_HH

#include <cstdint>
#include <span>
#include <vector>

#include "util/result.hh"

namespace nanobus {

/**
 * Exact transition counts for one bus, accumulated from packed
 * 64-cycle blocks.
 *
 * For each line i, `selfCount(i)` is the number of cycles where the
 * line transitioned. For each pair (i, j) within the stored radius,
 * `pairDeviationAt(i, j)` is the signed deviation of the pair's
 * coupling-factor sum from the self count (see pairDeviation() in
 * energy/transition.hh): the per-pair coupling-event count is then
 * `selfCount(i) + pairDeviationAt(i, j)`.
 */
class PackedTransitionCounts
{
  public:
    /**
     * @param width Bus width in lines, [1, 64].
     * @param radius Neighbor radius whose pair deviations are
     *               stored; clamped to width - 1.
     * @param initial_word Word held on the bus before cycle 0.
     */
    PackedTransitionCounts(unsigned width, unsigned radius,
                           uint64_t initial_word);

    /** Radius after clamping; pairs farther apart count as zero. */
    unsigned storedRadius() const { return stored_radius_; }

    /** Word held on the bus after the last processed cycle. */
    uint64_t prevWord() const { return prev_word_; }

    /**
     * Accumulate the counts for a run of bus words (one per cycle),
     * transitioning from the held word into words[0] and onward.
     * Words are masked to the bus width internally; the held word
     * becomes words.back() & mask. A short final run (under 16
     * words) skips the transpose and counts word by word; the counts
     * are the same either way.
     */
    void process(std::span<const uint64_t> words);

    /** Self-transition count of line i since the last reset. */
    uint64_t selfCount(unsigned i) const { return self_[i]; }

    /**
     * Signed pair deviation for lines i and j (symmetric; zero when
     * |i - j| exceeds the stored radius or i == j).
     */
    int64_t pairDeviationAt(unsigned i, unsigned j) const
    {
        const unsigned lo = i < j ? i : j;
        const unsigned d = i < j ? j - i : i - j;
        if (d == 0 || d > stored_radius_)
            return 0;
        return pair_[static_cast<size_t>(lo) * stored_radius_ +
                     (d - 1)];
    }

    /** Raw self counts, one per line (snapshot payload). */
    std::span<const uint64_t> selfCounts() const { return self_; }

    /**
     * Raw pair deviations, row-major: entry [i * storedRadius() +
     * (d - 1)] is the deviation for the pair (i, i + d). Rows near
     * the top of the bus have trailing always-zero slots (snapshot
     * payload keeps them for a fixed layout).
     */
    std::span<const int64_t> pairDeviations() const { return pair_; }

    /** Zero all counts and latch `word` as the held word. */
    void reset(uint64_t word);

    /** Zero all counts, keeping the held word. */
    void resetCounts();

    /**
     * Restore counts captured from an identically shaped counter.
     * InvalidArgument when the payload sizes do not match.
     */
    [[nodiscard]] Status restore(uint64_t prev_word,
                                 std::span<const uint64_t> self,
                                 std::span<const int64_t> pairs);

  private:
    /** Count one masked word's transition without a transpose. */
    void countWord(uint64_t word);

    unsigned width_;
    unsigned stored_radius_;
    uint64_t word_mask_;
    uint64_t prev_word_;
    std::vector<uint64_t> self_;
    std::vector<int64_t> pair_;
};

} // namespace nanobus

#endif // NANOBUS_ENERGY_PACKED_HH
