#include "trace/io.hh"

#include <algorithm>
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

/** Value of hex digit `c`, or 16 if it is none. */
unsigned
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return static_cast<unsigned>(c - '0');
    c = static_cast<char>(c | 0x20); // 'A'-'F' -> 'a'-'f'
    if (c >= 'a' && c <= 'f')
        return static_cast<unsigned>(c - 'a' + 10);
    return 16;
}

/**
 * Parse a line of exactly TraceWriter's form: 1-19 decimal digits,
 * one space, I/L/S, one space, 1-8 hex digits, then the end of the
 * line or a final '\r'. Returns false for anything else.
 *
 * Every line this accepts, parseScanf accepts with the same values:
 * %SCNu64 reads the same digit run, and 19 digits cannot overflow a
 * uint64_t, so no saturation applies; the format's " " skips the one
 * space and %c takes the letter; " %x" skips the next space and reads
 * the same hex run, and 8 digits fit an unsigned; sscanf ignores
 * whatever follows, so requiring the end or '\r' only narrows what
 * is taken here. Every line rejected here goes to parseScanf
 * unchanged, so accept/skip decisions and values are sscanf's on
 * every line.
 */
bool
parseCanonical(std::string_view line, TraceRecord &out)
{
    const char *p = line.data();
    const char *const end = p + line.size();

    const char *const digits = p;
    uint64_t cycle = 0;
    while (p != end && p - digits < 20 &&
           static_cast<unsigned>(*p - '0') < 10)
        cycle = 10 * cycle + static_cast<unsigned>(*p++ - '0');
    if (p == digits || p - digits > 19)
        return false;

    AccessKind kind = AccessKind::InstructionFetch;
    if (end - p < 4 || p[0] != ' ' || p[2] != ' ' ||
        !kindFromLetter(p[1], kind))
        return false;
    p += 3;

    const char *const hex = p;
    uint32_t address = 0;
    unsigned digit = 0;
    while (p != end && p - hex < 9 && (digit = hexValue(*p)) < 16) {
        address = address << 4 | digit;
        ++p;
    }
    if (p == hex || p - hex > 8)
        return false;
    if (p != end && !(*p == '\r' && p + 1 == end))
        return false;

    out.cycle = cycle;
    out.kind = kind;
    out.address = address;
    return true;
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
TraceFileBuffer::open(const std::string &path,
                      std::ios::openmode mode)
{
    in_.close();
    in_.clear();
    in_.open(path, mode);
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

size_t
TraceFileBuffer::take(size_t n, const char *&data)
{
    while (end_ - pos_ < n && refill()) {
    }
    const size_t got = std::min(n, end_ - pos_);
    data = buf_.data() + pos_;
    pos_ += got;
    return got;
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
    while (in_.nextLine(line)) {
        ++line_;
        if (FaultInjector::active()) {
            scratch_.assign(line);
            FaultInjector::instance().corruptLine(scratch_);
            line = scratch_;
        }
        if (line.empty() || line[0] == '#')
            continue;
        if (parseCanonical(line, out))
            return true;
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

namespace {

/** Binary format header: magic + format version. */
constexpr char binary_magic[4] = {'N', 'B', 'T', 'R'};
constexpr uint32_t binary_version = 1;

void
putLe(std::ofstream &out, uint64_t value, unsigned bytes)
{
    for (unsigned i = 0; i < bytes; ++i)
        out.put(static_cast<char>((value >> (8 * i)) & 0xff));
}

/** Header bytes: magic, then a little-endian u32 version. */
constexpr size_t binary_header_bytes = sizeof(binary_magic) + 4;
/** Record bytes: u64 cycle, u32 address, u8 kind. */
constexpr size_t binary_record_bytes = 8 + 4 + 1;

uint64_t
getLe(const char *data, unsigned bytes)
{
    uint64_t value = 0;
    for (unsigned i = 0; i < bytes; ++i)
        value |= static_cast<uint64_t>(static_cast<unsigned char>(
                     data[i])) << (8 * i);
    return value;
}

} // anonymous namespace

BinaryTraceWriter::BinaryTraceWriter(const std::string &path)
    : out_(path, std::ios::binary), path_(path)
{
    if (!out_)
        fatal("BinaryTraceWriter: cannot open '%s' for writing",
              path.c_str());
    out_.write(binary_magic, sizeof(binary_magic));
    putLe(out_, binary_version, 4);
}

void
BinaryTraceWriter::noteFailure()
{
    if (failed_)
        return;
    failed_ = true;
    warn("BinaryTraceWriter: write to '%s' failed (disk full?); "
         "records are being lost", path_.c_str());
}

void
BinaryTraceWriter::write(const TraceRecord &record)
{
    putLe(out_, record.cycle, 8);
    putLe(out_, record.address, 4);
    putLe(out_, static_cast<uint64_t>(record.kind), 1);
    if (!out_)
        noteFailure();
}

void
BinaryTraceWriter::flush()
{
    out_.flush();
    if (failed_ || !out_)
        fatal("BinaryTraceWriter: failed to write '%s' (disk full?)",
              path_.c_str());
}

BinaryTraceReader::BinaryTraceReader(const std::string &path)
    : path_(path)
{
    if (!in_.open(path, std::ios::in | std::ios::binary))
        fatal("BinaryTraceReader: cannot open '%s'", path.c_str());
    const char *header = nullptr;
    const size_t got = in_.take(binary_header_bytes, header);
    if (got < sizeof(binary_magic) ||
        std::memcmp(header, binary_magic, sizeof(binary_magic)) != 0)
        fatal("BinaryTraceReader: '%s' is not a nanobus binary "
              "trace", path.c_str());
    if (got < binary_header_bytes)
        fatal("binary trace: %s: truncated header", path.c_str());
    const uint64_t version = getLe(header + sizeof(binary_magic), 4);
    if (version != binary_version)
        fatal("BinaryTraceReader: '%s' has unsupported version %llu",
              path.c_str(),
              static_cast<unsigned long long>(version));
}

bool
BinaryTraceReader::next(TraceRecord &out)
{
    const char *record = nullptr;
    const size_t got = in_.take(binary_record_bytes, record);
    if (got == 0)
        return false;
    if (got < binary_record_bytes)
        fatal("BinaryTraceReader: %s: truncated record",
              path_.c_str());
    const uint64_t kind = getLe(record + 12, 1);
    if (kind > static_cast<uint64_t>(AccessKind::Store))
        fatal("BinaryTraceReader: %s: bad access kind %llu",
              path_.c_str(), static_cast<unsigned long long>(kind));
    out.cycle = getLe(record, 8);
    out.address = static_cast<uint32_t>(getLe(record + 8, 4));
    out.kind = static_cast<AccessKind>(kind);
    return true;
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
