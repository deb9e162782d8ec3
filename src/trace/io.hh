/**
 * @file
 * Trace file IO.
 *
 * Two formats:
 *  - text: one record per line, `<cycle> <kind> <hex address>` with
 *    kind one of I/L/S; lines starting with '#' are comments.
 *  - binary: a 8-byte header ("NBTR" magic + version) followed by
 *    packed little-endian records (u64 cycle, u32 address, u8 kind)
 *    — 13 bytes/record against ~18 for text.
 *
 * Both readers go through one block buffer. TraceReader takes each
 * text line by the first of two paths that accepts it:
 *  1. The word path takes exactly the line TraceWriter emits: 1-15
 *     decimal digits, a space, I/L/S, a space, exactly 8 hex digits
 *     (either case) and '\n'. It loads 8-byte words in plain C++,
 *     checks and converts both fields with byte-wise arithmetic on
 *     one 64-bit integer, and finds the line end by position.
 *     Every byte it reads lies in the buffered bytes not yet
 *     consumed (TraceFileBuffer::unconsumed(); it needs 16 of them
 *     to start): past them the buffer holds stale bytes of an
 *     earlier block that could complete a partial line. A line not
 *     wholly buffered, and every line while the FaultInjector is
 *     armed, takes the path below.
 *  2. Every other line is framed by memchr and goes to the
 *     historical sscanf("%" SCNu64 " %c %x") grammar, and is
 *     skipped against the error budget when that rejects it.
 * sscanf accepts every line the word path takes, with the same
 * values, so records, linesRead(), skippedLines(), warnings and
 * fatal errors are those of the sscanf grammar alone. On one thread
 * over 1.5M records with 7-digit cycles (4-vCPU VM) TraceReader takes
 * ~14 ns/record (~55 before the word path) and BinaryTraceReader
 * ~17 ns/record; traced fig4-trace-file reads trace.ns_per_record
 * 16-27 ns/record (58 before) in single seed-2 runs.
 *
 * Error handling follows docs/ROBUSTNESS.md: open failures and
 * structural defects (bad magic, truncated binary records) are
 * fatal(); *content* defects in text traces (malformed lines) are
 * recoverable — TraceReader skips them up to a configurable error
 * budget and reports the skip count, so one corrupted line in a
 * multi-gigabyte trace does not kill a batch sweep. Writers latch
 * and report stream failures instead of silently losing records.
 */

#ifndef NANOBUS_TRACE_IO_HH
#define NANOBUS_TRACE_IO_HH

#include <cstddef>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/record.hh"
#include "util/result.hh"

namespace nanobus {

/** Size of a trace reader's buffer: each refill reads up to this
 *  much, and only a line longer than one block grows it. */
constexpr size_t kTraceBlockSize = 256 * 1024;

/**
 * Block-buffered sequential input over one trace file, shared by
 * TraceReader and BinaryTraceReader: one ifstream::read per block
 * instead of a stream call per line or byte, and no per-record
 * allocation. A line or record that straddles a refill is moved to
 * the front of the buffer; the buffer grows only when one line is
 * longer than the whole buffer.
 */
class TraceFileBuffer
{
  public:
    /** (Re)open `path` and drop any buffered bytes; false if the file
     *  cannot be opened. */
    bool open(const std::string &path,
              std::ios::openmode mode = std::ios::in);

    /**
     * Next line without its '\n', with std::getline's framing: a
     * final line without '\n' still counts, an empty file or a
     * trailing '\n' adds no line. The view is valid until the next
     * call. False at end of file.
     */
    bool nextLine(std::string_view &line);

    /** Point `data` at the next `n` bytes and consume them; returns
     *  how many there are, fewer than `n` only at end of file. Valid
     *  until the next call. */
    size_t take(size_t n, const char *&data);

    /** The buffered bytes not yet consumed, possibly ending mid-line;
     *  empty before the first read. Never refills. Valid until the
     *  next call. */
    std::string_view unconsumed() const
    {
        return {buf_.data() + pos_, end_ - pos_};
    }

    /** Consume the first `n` bytes of unconsumed(). */
    void consume(size_t n) { pos_ += n; }

  private:
    /** Move the unconsumed bytes to the front, then read behind them;
     *  false once the file has nothing more to give. */
    bool refill();

    std::ifstream in_;
    std::vector<char> buf_;
    size_t pos_ = 0; ///< first unconsumed byte
    size_t end_ = 0; ///< one past the last valid byte
    bool eof_ = false;
};

/** Streamed text-format trace writer. */
class TraceWriter
{
  public:
    /** Open `path`, truncating; calls fatal() on failure. */
    explicit TraceWriter(const std::string &path);

    /** Append one record. A stream failure latches good() to false
     *  and warns once; flush() escalates it to fatal(). */
    void write(const TraceRecord &record);

    /** Append a comment line. */
    void comment(const std::string &text);

    /** Flush to disk; calls fatal() if any write failed, so record
     *  loss is never silent. */
    void flush();

    /** True while every write so far has succeeded. */
    bool good() const { return !failed_ && out_.good(); }

  private:
    void noteFailure();

    std::ofstream out_;
    std::string path_;
    bool failed_ = false;
};

/** Streamed text-format trace reader implementing TraceSource. */
class TraceReader : public TraceSource
{
  public:
    /**
     * Open `path`; calls fatal() on failure.
     *
     * @param error_budget Number of malformed lines to skip (with a
     *        warning) before giving up; skipping past the budget is
     *        fatal(). 0 keeps the strict historical behaviour where
     *        the first malformed line is fatal.
     */
    explicit TraceReader(const std::string &path,
                         size_t error_budget = 0);

    bool next(TraceRecord &out) override;

    /**
     * Close and reopen the trace from the beginning, clearing the
     * line and skip counters (the error budget is kept). The rewind
     * seam for retried jobs and checkpoint resume: a reader whose
     * stream went bad (or that is simply mid-file) comes back to a
     * pristine start-of-trace state. Returns IoError — not fatal() —
     * when the file cannot be reopened, since a retry path must be
     * able to observe and handle the failure.
     */
    [[nodiscard]] Status reopen();

    /** Adjust the malformed-line budget mid-stream. */
    void setErrorBudget(size_t budget) { error_budget_ = budget; }

    /** Malformed lines skipped so far. */
    size_t skippedLines() const { return skipped_; }

    /** Lines (records, comments, or skipped garbage) consumed. */
    size_t linesRead() const { return line_; }

  private:
    TraceFileBuffer in_;
    std::string path_;
    /** Copy of the current line when the fault injector corrupts it
     *  or sscanf needs it NUL-terminated. */
    std::string scratch_;
    size_t line_ = 0;
    size_t error_budget_ = 0;
    size_t skipped_ = 0;
};

/** Streamed binary-format trace writer. */
class BinaryTraceWriter
{
  public:
    /** Open `path`, truncating, and emit the header. */
    explicit BinaryTraceWriter(const std::string &path);

    /** Append one record (failures latch good(), see TraceWriter). */
    void write(const TraceRecord &record);

    /** Flush to disk; fatal() if any write failed. */
    void flush();

    /** True while every write so far has succeeded. */
    bool good() const { return !failed_ && out_.good(); }

  private:
    void noteFailure();

    std::ofstream out_;
    std::string path_;
    bool failed_ = false;
};

/** Streamed binary-format trace reader implementing TraceSource. */
class BinaryTraceReader : public TraceSource
{
  public:
    /** Open `path` and validate the header; fatal() on mismatch or
     *  truncation. */
    explicit BinaryTraceReader(const std::string &path);

    bool next(TraceRecord &out) override;

  private:
    TraceFileBuffer in_;
    std::string path_;
};

/** Read a whole trace file into memory. */
std::vector<TraceRecord> readTraceFile(const std::string &path);

/** Write a whole trace to a file. */
void writeTraceFile(const std::string &path,
                    const std::vector<TraceRecord> &records);

} // namespace nanobus

#endif // NANOBUS_TRACE_IO_HH
