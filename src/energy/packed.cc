#include "energy/packed.hh"

#include <algorithm>

#include "energy/transition.hh"
#include "util/bitops.hh"
#include "util/logging.hh"

namespace nanobus {

PackedTransitionCounts::PackedTransitionCounts(unsigned width,
                                               unsigned radius,
                                               uint64_t initial_word)
    : width_(width),
      stored_radius_(std::min(radius, width > 0 ? width - 1 : 0u)),
      word_mask_(lowMask(width)),
      prev_word_(initial_word & word_mask_)
{
    if (width_ == 0 || width_ > 64)
        fatal("PackedTransitionCounts: width %u outside [1, 64]",
              width_);
    self_.assign(width_, 0);
    pair_.assign(static_cast<size_t>(width_) * stored_radius_, 0);
}

void
PackedTransitionCounts::process(std::span<const uint64_t> words)
{
    const size_t n = words.size();
    size_t base = 0;
    // Lane scratch: `lanes` holds the block first as masked words
    // (one per cycle) and, after the transpose, as line lanes (bit k
    // = the line's value at cycle k). Words are masked *before* the
    // transpose so bits at or above the bus width can never reach a
    // lane — the stale-tail defense pinned by
    // tests/energy/test_packed_kernel.cc.
    uint64_t lanes[64];
    uint64_t trans[64];
    // Shorter runs count word by word: the 64 x 64 transpose costs
    // more than it saves there (on 16-64-wire buses at 2-64 toggling
    // lines per word, a 16-word run costs the same or less word by
    // word, a 32-word run usually more).
    constexpr size_t kMinBlockWords = 16;
    while (base < n) {
        const size_t m = std::min<size_t>(64, n - base);
        if (m < kMinBlockWords) {
            for (size_t k = base; k < n; ++k)
                countWord(words[k] & word_mask_);
            return;
        }
        for (size_t k = 0; k < m; ++k)
            lanes[k] = words[base + k] & word_mask_;
        std::fill(lanes + m, lanes + 64, 0ull);
        const uint64_t next_prev = lanes[m - 1];
        transposeBits64(lanes);

        // Transition lanes: a line toggles at cycle k when its bit
        // differs from cycle k-1's; the held word's bit stands in for
        // cycle -1, and cycles past the block's end are masked off.
        const uint64_t cycle_mask =
            lowMask(static_cast<unsigned>(m));
        for (unsigned i = 0; i < width_; ++i) {
            const uint64_t carry = (prev_word_ >> i) & 1ull;
            trans[i] =
                (lanes[i] ^ ((lanes[i] << 1) | carry)) & cycle_mask;
            self_[i] += popcount(trans[i]);
        }

        // Pair deviations: only cycles where *both* lines moved
        // contribute (+1 toggle, -1 same-direction), so lines that
        // held all block — the common case on real traces — drop
        // out entirely. Compacting the active lines first makes the
        // pair scan quadratic in the *toggling* line count, not the
        // bus width.
        unsigned active[64];
        unsigned n_active = 0;
        for (unsigned i = 0; i < width_; ++i)
            if (trans[i] != 0)
                active[n_active++] = i;
        for (unsigned a = 0; a + 1 < n_active; ++a) {
            const unsigned i = active[a];
            const uint64_t ti = trans[i];
            int64_t *row = pair_.data() +
                static_cast<size_t>(i) * stored_radius_;
            for (unsigned b = a + 1;
                 b < n_active && active[b] - i <= stored_radius_;
                 ++b) {
                const unsigned j = active[b];
                const uint64_t tj = trans[j];
                if ((ti & tj) == 0)
                    continue;
                row[j - i - 1] +=
                    pairDeviation(ti, tj, lanes[i], lanes[j]);
            }
        }

        prev_word_ = next_prev;
        base += m;
    }
}

void
PackedTransitionCounts::countWord(uint64_t word)
{
    // The integers the lane path adds for one cycle: each moving line
    // counts once, and each moving pair within the radius deviates
    // +1 when the lines end apart (opposite toggles), -1 when they end
    // together (same direction).
    const uint64_t changed = prev_word_ ^ word;
    for (uint64_t bits = changed; bits; bits &= bits - 1) {
        const unsigned i = static_cast<unsigned>(std::countr_zero(bits));
        ++self_[i];
        int64_t *row = pair_.data() +
            static_cast<size_t>(i) * stored_radius_;
        // Bit d: line i + 1 + d moved too.
        uint64_t partners =
            (changed >> i >> 1) & lowMask(stored_radius_);
        for (; partners; partners &= partners - 1) {
            const unsigned d =
                static_cast<unsigned>(std::countr_zero(partners));
            row[d] += bitOf(word, i) != bitOf(word, i + 1 + d) ? 1 : -1;
        }
    }
    prev_word_ = word;
}

void
PackedTransitionCounts::reset(uint64_t word)
{
    prev_word_ = word & word_mask_;
    resetCounts();
}

void
PackedTransitionCounts::resetCounts()
{
    std::fill(self_.begin(), self_.end(), 0ull);
    std::fill(pair_.begin(), pair_.end(), int64_t{0});
}

Status
PackedTransitionCounts::restore(uint64_t prev_word,
                                std::span<const uint64_t> self,
                                std::span<const int64_t> pairs)
{
    if (self.size() != self_.size() || pairs.size() != pair_.size()) {
        return Status::failure(
            ErrorCode::InvalidArgument,
            "PackedTransitionCounts::restore: payload " +
                std::to_string(self.size()) + "/" +
                std::to_string(pairs.size()) +
                " counts for a counter shaped " +
                std::to_string(self_.size()) + "/" +
                std::to_string(pair_.size()));
    }
    prev_word_ = prev_word & word_mask_;
    std::copy(self.begin(), self.end(), self_.begin());
    std::copy(pairs.begin(), pairs.end(), pair_.begin());
    return Status();
}

} // namespace nanobus
