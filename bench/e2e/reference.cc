/**
 * @file
 * reference.txt: the Scalar+RK4 oracle results the benchmark checks
 * every run against, one record per line:
 *
 *   entry WORKLOAD SCALE SEED
 *   count NAME VALUE
 *   cell LABEL OP COUNT INTERVALS SELF_J COUPLING_J AVG_TEMP_K MAX_TEMP_K
 *
 * `count` and `cell` lines belong to the entry above them. Doubles are
 * written with %.17g, so strtod reads back the exact bits. Lines
 * starting with '#' are comments.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "e2e.hh"
#include "util/atomicfile.hh"

namespace nanobus {
namespace e2e {

namespace {

bool
toU64(const std::string &token, uint64_t &out)
{
    char *end = nullptr;
    out = std::strtoull(token.c_str(), &end, 10);
    return !token.empty() && *end == '\0';
}

bool
toF64(const std::string &token, double &out)
{
    char *end = nullptr;
    out = std::strtod(token.c_str(), &end);
    return !token.empty() && *end == '\0';
}

/** Parse one non-comment line into `entries`; false when malformed. */
bool
parseLine(const std::string &line, std::vector<ReferenceEntry> &entries)
{
    std::istringstream in(line);
    std::string kind;
    std::vector<std::string> f;
    in >> kind;
    for (std::string token; in >> token;)
        f.push_back(token);

    if (kind == "entry") {
        ReferenceEntry entry;
        if (f.size() != 3 || !toU64(f[2], entry.seed))
            return false;
        entry.workload = f[0];
        entry.scale = f[1];
        entries.push_back(std::move(entry));
        return true;
    }
    if (entries.empty())
        return false;
    ReferenceEntry &entry = entries.back();
    if (kind == "count") {
        uint64_t value = 0;
        if (f.size() != 2 || !toU64(f[1], value))
            return false;
        entry.counts[f[0]] = value;
        return true;
    }
    if (kind == "cell") {
        Cell c;
        uint64_t op = 0;
        if (f.size() != 8 || !toU64(f[1], op) || !toU64(f[2], c.count) ||
            !toU64(f[3], c.intervals) || !toF64(f[4], c.self) ||
            !toF64(f[5], c.coupling) || !toF64(f[6], c.avg_temp) ||
            !toF64(f[7], c.max_temp))
            return false;
        c.label = f[0];
        c.op = static_cast<unsigned>(op);
        entry.cells.push_back(std::move(c));
        return true;
    }
    return false;
}

} // namespace

Result<std::vector<ReferenceEntry>>
loadReference(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return Result<std::vector<ReferenceEntry>>::failure(
            ErrorCode::IoError, "cannot read " + path);
    std::vector<ReferenceEntry> entries;
    std::string line;
    for (size_t number = 1; std::getline(in, line); ++number) {
        if (line.empty() || line[0] == '#')
            continue;
        if (!parseLine(line, entries))
            return Result<std::vector<ReferenceEntry>>::failure(
                ErrorCode::ParseError,
                path + ":" + std::to_string(number) + ": malformed line");
    }
    return entries;
}

Status
storeReference(const std::string &path, const ReferenceEntry &entry)
{
    std::vector<ReferenceEntry> entries;
    if (std::ifstream(path).good()) {
        Result<std::vector<ReferenceEntry>> loaded = loadReference(path);
        if (!loaded.ok())
            return loaded.error();
        entries = loaded.takeValue();
    }
    bool replaced = false;
    for (ReferenceEntry &e : entries) {
        if (e.workload == entry.workload && e.scale == entry.scale &&
            e.seed == entry.seed) {
            e = entry;
            replaced = true;
        }
    }
    if (!replaced)
        entries.push_back(entry);

    std::string out =
        "# nanobus_e2e oracle results (Scalar kernel + RK4 solver),\n"
        "# written by nanobus_e2e --write-reference. Cell fields: label\n"
        "# op count intervals self_j coupling_j avg_temp_k max_temp_k\n";
    char buf[512];
    for (const ReferenceEntry &e : entries) {
        out += "entry " + e.workload + " " + e.scale + " " +
            std::to_string(e.seed) + "\n";
        for (const auto &[key, value] : e.counts)
            out += "count " + key + " " + std::to_string(value) + "\n";
        for (const Cell &c : e.cells) {
            std::snprintf(buf, sizeof(buf),
                          "cell %s %u %llu %llu %.17g %.17g %.17g %.17g\n",
                          c.label.c_str(), c.op,
                          static_cast<unsigned long long>(c.count),
                          static_cast<unsigned long long>(c.intervals),
                          c.self, c.coupling, c.avg_temp, c.max_temp);
            out += buf;
        }
    }
    return writeFileAtomic(path, out);
}

} // namespace e2e
} // namespace nanobus
