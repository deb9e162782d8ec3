#include "trace/io.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstring>
#include <cstdio>

#include "util/faultinject.hh"
#include "util/logging.hh"

namespace nanobus {

namespace {

/** Number of individually warned skips before going quiet. */
constexpr size_t skip_warn_limit = 5;

char
kindLetter(AccessKind kind)
{
    switch (kind) {
      case AccessKind::InstructionFetch: return 'I';
      case AccessKind::Load:             return 'L';
      case AccessKind::Store:            return 'S';
    }
    // Emitting a placeholder here would round-trip into a reader
    // parse failure far from the cause; an unknown kind is a nanobus
    // bug and must stop at its origin.
    panic("kindLetter: unknown access kind %u",
          static_cast<unsigned>(kind));
}

bool
kindFromLetter(char c, AccessKind &kind)
{
    switch (c) {
      case 'I': kind = AccessKind::InstructionFetch; return true;
      case 'L': kind = AccessKind::Load;             return true;
      case 'S': kind = AccessKind::Store;            return true;
      default:  return false;
    }
}

/** The eight bytes at `p` as one word, the first in the low byte:
 *  one load on a little-endian host. */
uint64_t
loadWord(const char *p)
{
    if constexpr (std::endian::native == std::endian::little) {
        uint64_t w = 0;
        std::memcpy(&w, p, sizeof(w));
        return w;
    } else {
        uint64_t w = 0;
        for (unsigned i = 0; i < 8; ++i)
            w |= static_cast<uint64_t>(static_cast<unsigned char>(p[i]))
                << (8 * i);
        return w;
    }
}

/** `b` copied into every byte of a word. */
constexpr uint64_t
splat(uint64_t b)
{
    return b * 0x0101010101010101ull;
}

/**
 * Zero in every byte of `w` (first character in the low byte) before
 * its first non-digit, nonzero in that byte. A carry out of a byte
 * at or above 0xfa can only disturb the bytes after it, and such a
 * byte is itself a non-digit.
 */
uint64_t
nonDigitBytes(uint64_t w)
{
    return ((w & splat(0xf0)) ^ splat(0x30)) |
        (((w + splat(0x06)) & splat(0xf0)) ^ splat(0x30));
}

/** Value of the eight decimal digits in `w`, first (most
 *  significant) in the low byte; zero bytes read as leading zeros. */
uint64_t
eightDigits(uint64_t w)
{
    w = (w & splat(0x0f)) * (10 * 256 + 1) >> 8;
    w = (w & 0x00ff00ff00ff00ffull) * (100 * 65536 + 1) >> 16;
    return (w & 0x0000ffff0000ffffull) *
        (10000 * (uint64_t{1} << 32) + 1) >> 32;
}

/**
 * True when every byte of `w` is a hex digit of either case; then
 * `value` is the eight digits' value, first (most significant) in
 * the low byte. The range tests add to 7-bit bytes, so no byte
 * carries into the next; bytes at or above 0x80 fail on `~w`.
 */
bool
eightHexDigits(uint64_t w, uint32_t &value)
{
    const uint64_t high = splat(0x80);
    const uint64_t low7 = w & ~high;
    const uint64_t decimal =
        (low7 + splat(0x80 - '0')) & ~(low7 + splat(0x7f - '9'));
    const uint64_t folded = low7 | splat(0x20); // 'A'-'F' -> 'a'-'f'
    const uint64_t letter =
        (folded + splat(0x80 - 'a')) & ~(folded + splat(0x7f - 'f'));
    if (((decimal | letter) & ~w & high) != high)
        return false;
    // Nibbles, then pairs into bytes, bytes into 16-bit lanes, and
    // lanes into the 32-bit value.
    uint64_t v = (w & splat(0x0f)) + ((letter & high) >> 7) * 9;
    v = (v << 4 | v >> 8) & 0x00ff00ff00ff00ffull;
    v = (v << 8 | v >> 16) & 0x0000ffff0000ffffull;
    value = static_cast<uint32_t>(v << 16 | v >> 32);
    return true;
}

/**
 * The word path: parse the line at the front of `rest` if it is
 * exactly a TraceWriter record (1-15 decimal digits, a space,
 * I/L/S, a space, exactly 8 hex digits of either case, '\n'), and
 * return its length with the '\n'; return 0 for anything else,
 * including a line that `rest` does not hold whole. Every byte it
 * reads lies in `rest`: beyond it the buffer holds stale bytes of an
 * earlier block that could complete a partial line.
 *
 * parseScanf accepts every line taken here with the same values:
 * '\n' ends the line nextLine() would frame; %SCNu64 reads the same
 * digit run, and 15 digits cannot overflow a uint64_t; the format's
 * " " skips the one space and %c takes the letter; " %x" skips the
 * next space and reads the same 8 hex digits, which fit an unsigned.
 * So taking a line here changes no record, count or message.
 */
size_t
parseWord(std::string_view rest, TraceRecord &out)
{
    if (rest.size() < 16)
        return 0;
    const char *const p = rest.data();
    const uint64_t w0 = loadWord(p);
    size_t digits = 0;
    uint64_t cycle = 0;
    if (const uint64_t stop = nonDigitBytes(w0)) {
        digits = static_cast<size_t>(std::countr_zero(stop)) / 8;
        if (digits == 0)
            return 0;
        cycle = eightDigits(w0 << (64 - 8 * digits));
    } else {
        const uint64_t w1 = loadWord(p + 8);
        const uint64_t stop1 = nonDigitBytes(w1);
        if (stop1 == 0)
            return 0; // 16 or more digits
        const unsigned more =
            static_cast<unsigned>(std::countr_zero(stop1)) / 8;
        digits = 8 + more;
        cycle = eightDigits(w0);
        if (more > 0) {
            static constexpr uint64_t pow10[8] = {
                1, 10, 100, 1000, 10000, 100000, 1000000, 10000000};
            cycle = cycle * pow10[more] +
                eightDigits(w1 << (64 - 8 * more));
        }
    }
    const size_t length = digits + 12;
    if (length > rest.size())
        return 0;
    AccessKind kind = AccessKind::InstructionFetch;
    uint32_t address = 0;
    if (p[digits] != ' ' || p[digits + 2] != ' ' ||
        p[digits + 11] != '\n' || !kindFromLetter(p[digits + 1], kind) ||
        !eightHexDigits(loadWord(p + digits + 3), address))
        return 0;
    out.cycle = cycle;
    out.kind = kind;
    out.address = address;
    return length;
}

/** The text grammar proper: parse NUL-terminated `line` with
 *  sscanf, leaving `out` untouched on failure. */
bool
parseScanf(const char *line, TraceRecord &out)
{
    uint64_t cycle = 0;
    char kind_char = 0;
    unsigned address = 0;
    AccessKind kind = AccessKind::InstructionFetch;
    if (std::sscanf(line, "%" SCNu64 " %c %x", &cycle, &kind_char,
                    &address) != 3 ||
        !kindFromLetter(kind_char, kind))
        return false;
    out.cycle = cycle;
    out.kind = kind;
    out.address = address;
    return true;
}

} // anonymous namespace

bool
TraceFileBuffer::open(const std::string &path)
{
    in_.close();
    in_.clear();
    in_.open(path);
    buf_.clear(); // the first refill allocates: opening stays cheap
    pos_ = 0;
    end_ = 0;
    eof_ = false;
    return static_cast<bool>(in_);
}

bool
TraceFileBuffer::refill()
{
    if (eof_)
        return false;
    if (pos_ > 0) { // keep the partial line, at the front
        std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
        end_ -= pos_;
        pos_ = 0;
    }
    // First fill, or one line fills the whole buffer.
    if (end_ == buf_.size())
        buf_.resize(std::max(kTraceBlockSize, 2 * buf_.size()));
    in_.read(buf_.data() + end_,
             static_cast<std::streamsize>(buf_.size() - end_));
    const size_t got = static_cast<size_t>(in_.gcount());
    end_ += got;
    // read() falls short only at end of file or on a read error;
    // either way std::getline would have stopped there too.
    if (!in_)
        eof_ = true;
    return got > 0;
}

bool
TraceFileBuffer::nextLine(std::string_view &line)
{
    size_t scanned = 0; // bytes past pos_ known to hold no '\n'
    for (;;) {
        const char *const start = buf_.data() + pos_;
        const size_t avail = end_ - pos_;
        const void *nl = avail > scanned
            ? std::memchr(start + scanned, '\n', avail - scanned)
            : nullptr;
        if (nl) {
            const size_t len =
                static_cast<size_t>(static_cast<const char *>(nl) -
                                    start);
            line = std::string_view(start, len);
            pos_ += len + 1;
            return true;
        }
        scanned = avail;
        if (!refill()) {
            if (pos_ == end_)
                return false;
            line = std::string_view(buf_.data() + pos_, end_ - pos_);
            pos_ = end_;
            return true;
        }
    }
}

TraceWriter::TraceWriter(const std::string &path)
    : out_(path), path_(path)
{
    if (!out_)
        fatal("TraceWriter: cannot open '%s' for writing",
              path.c_str());
}

void
TraceWriter::noteFailure()
{
    if (failed_)
        return;
    failed_ = true;
    warn("TraceWriter: write to '%s' failed (disk full?); records "
         "are being lost", path_.c_str());
}

void
TraceWriter::write(const TraceRecord &record)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%" PRIu64 " %c %08x\n",
                  record.cycle, kindLetter(record.kind),
                  record.address);
    out_ << buf;
    if (!out_)
        noteFailure();
}

void
TraceWriter::comment(const std::string &text)
{
    out_ << "# " << text << '\n';
    if (!out_)
        noteFailure();
}

void
TraceWriter::flush()
{
    out_.flush();
    if (failed_ || !out_)
        fatal("TraceWriter: failed to write '%s' (disk full?)",
              path_.c_str());
}

TraceReader::TraceReader(const std::string &path, size_t error_budget)
    : path_(path), error_budget_(error_budget)
{
    if (!in_.open(path))
        fatal("TraceReader: cannot open '%s'", path.c_str());
}

Status
TraceReader::reopen()
{
    if (!in_.open(path_)) {
        return Status::failure(
            ErrorCode::IoError,
            "TraceReader: cannot reopen '" + path_ + "'");
    }
    line_ = 0;
    skipped_ = 0;
    return Status();
}

bool
TraceReader::next(TraceRecord &out)
{
    std::string_view line;
    for (;;) {
        // The injector counts and corrupts every line, so while it is
        // armed each line takes the per-line path below.
        if (!FaultInjector::active()) {
            if (const size_t length = parseWord(in_.unconsumed(), out)) {
                in_.consume(length);
                ++line_;
                return true;
            }
        }
        if (!in_.nextLine(line))
            break;
        ++line_;
        if (FaultInjector::active()) {
            scratch_.assign(line);
            FaultInjector::instance().corruptLine(scratch_);
            line = scratch_;
        }
        if (line.empty() || line[0] == '#')
            continue;
        // sscanf needs a NUL-terminated copy (a line the injector
        // touched already is one).
        if (line.data() != scratch_.data())
            scratch_.assign(line);
        if (parseScanf(scratch_.c_str(), out))
            return true;
        if (skipped_ >= error_budget_)
            fatal("TraceReader: %s:%zu: malformed record '%s' "
                  "(%zu already skipped, budget %zu)",
                  path_.c_str(), line_, scratch_.c_str(), skipped_,
                  error_budget_);
        ++skipped_;
        if (skipped_ <= skip_warn_limit)
            warn("TraceReader: %s:%zu: skipping malformed record "
                 "'%s' (%zu/%zu)", path_.c_str(), line_,
                 scratch_.c_str(), skipped_, error_budget_);
        if (skipped_ == skip_warn_limit && error_budget_ > skip_warn_limit)
            warn("TraceReader: %s: further skips reported only "
                 "via skippedLines()", path_.c_str());
    }
    if (skipped_ > 0)
        inform("TraceReader: %s: skipped %zu malformed line(s) of %zu",
               path_.c_str(), skipped_, line_);
    return false;
}

std::vector<TraceRecord>
readTraceFile(const std::string &path)
{
    TraceReader reader(path);
    std::vector<TraceRecord> records;
    TraceRecord record;
    while (reader.next(record))
        records.push_back(record);
    return records;
}

void
writeTraceFile(const std::string &path,
               const std::vector<TraceRecord> &records)
{
    TraceWriter writer(path);
    for (const auto &record : records)
        writer.write(record);
    writer.flush();
}

} // namespace nanobus
