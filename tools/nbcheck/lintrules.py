"""Repository lint rules over the token stream.

Eight rules guarding conventions the dimensional-safety layer, the
checked-error layer, the parallel runtime, the batch pipeline and
atomic result publication rely on (docs/STATIC_ANALYSIS.md §8 has
the catalog). Like layering they are token-derived under either
backend. Each rule is its own entry in ``[scopes]``; sanctioned
sites are ``[[allow]]`` entries. Unlike nbcheck's other families,
the line rules also honour a ``// NOLINT(<rule>)`` comment on the
offending line, for single call sites that need a justified
exception; the file-level include-guard rule has no escape.
"""

from __future__ import annotations

import re

from .findings import Finding
from .tokenscan import _is_std_qualified

RULES = ("discarded-result", "raw-unit-double", "using-namespace",
         "include-guard", "raw-thread", "raw-affinity",
         "raw-trace-next", "raw-result-write")

_HEADER_EXTS = (".hh", ".hpp", ".h")

# Calls to Result<T>/Status-returning APIs: try*, *Checked.
_CHECKED_CALL_RE = re.compile(
    r"try[A-Z]\w*|integrateChecked|advanceChecked")
# Parameter names carrying an SI unit suffix: joules, watts, kelvin,
# farads, volts, seconds, metres.
_UNIT_NAME_RE = re.compile(r"\w+_[jwkfvsm]")
_GUARD_RE = re.compile(r"NANOBUS_\w+_HH")
_AFFINITY_CALLS = {"pthread_setaffinity_np", "pthread_getaffinity_np",
                   "sched_setaffinity"}

_MESSAGES = {
    "discarded-result":
        "Result/Status return value discarded; assign and check it "
        "(or cast via std::ignore with a NOLINT)",
    "raw-unit-double":
        "raw double parameter with a unit-suffixed name; use a "
        "Quantity alias from util/units.hh",
    "using-namespace":
        "'using namespace' in a header leaks into every includer",
    "include-guard": "header lacks a NANOBUS_*_HH include guard",
    "raw-thread":
        "raw std::thread/std::jthread/std::async outside src/exec/; "
        "use exec::ThreadPool (or the exec/parallel.hh helpers)",
    "raw-affinity":
        "thread affinity call; the exec runtime places work only by "
        "pool size and chunk hints, so nothing pins threads",
    "raw-trace-next":
        "per-record TraceSource::next() in a replay hot path; stream "
        "through BatchReader/PrefetchReader or SimPipeline "
        "(docs/PIPELINE.md)",
    "raw-result-write":
        "raw fopen/rename result-file plumbing; publish through "
        "writeFileAtomic (util/atomicfile.hh) so readers never "
        "observe a torn file",
}


def _value(tokens, i):
    return tokens[i].value if 0 <= i < len(tokens) else None


def _statement_boundaries(tokens):
    """Indices i after which a new statement begins: ';', '{', '}',
    and a label's or access specifier's ':' (one outside parentheses
    and not closing a '?', so neither a range-for's nor a
    conditional's ':' is a boundary)."""
    boundaries = set()
    depth = 0
    open_conditionals = 0
    for i, tok in enumerate(tokens):
        v = tok.value
        if v == "(":
            depth += 1
        elif v == ")":
            depth -= 1
        elif v == "?":
            open_conditionals += 1
        elif v == ":" and open_conditionals:
            open_conditionals -= 1
        elif v in (";", "{", "}") or (v == ":" and depth == 0):
            boundaries.add(i)
            open_conditionals = 0
    return boundaries


def _has_guard(tokens):
    """True when some `#ifndef NANOBUS_*_HH` appears."""
    return any(tok.value == "#" and _value(tokens, i + 1) == "ifndef"
               and _GUARD_RE.match(_value(tokens, i + 2) or "")
               for i, tok in enumerate(tokens))


def _discarded_result(tokens, i, boundaries):
    """A checked call used as a bare statement: `tryX(...)` or
    `obj.tryX(...)` / `obj->tryX(...)` directly after a statement
    boundary."""
    if (tokens[i].kind != "id" or _value(tokens, i + 1) != "("
            or not _CHECKED_CALL_RE.fullmatch(tokens[i].value)):
        return False
    start = i
    if _value(tokens, i - 1) in (".", "->") and i >= 2 \
            and tokens[i - 2].kind == "id":
        start = i - 2
    return start == 0 or start - 1 in boundaries


def _raw_thread(tokens, i):
    """std::thread / std::jthread named as a type (std::thread::id
    and std::thread::hardware_concurrency spawn nothing), or a
    std::async call."""
    v = tokens[i].value
    if not _is_std_qualified(tokens, i):
        return False
    if v in ("thread", "jthread"):
        return _value(tokens, i + 1) != "::"
    return v == "async" and _value(tokens, i + 1) == "("


def _raw_trace_next(tokens, i):
    """A member call `.next(arg)` / `->next(arg)`: TraceSource::next
    takes the record; nextBatch() and argumentless next() (Rng) do
    not match."""
    return (tokens[i].value == "next"
            and _value(tokens, i - 1) in (".", "->")
            and _value(tokens, i + 1) == "("
            and _value(tokens, i + 2) not in (")", None))


def _raw_result_write(tokens, i):
    """fopen(...) in any spelling, std::rename(...) and
    std::filesystem::rename(...). std::remove stays allowed."""
    v = tokens[i].value
    if _value(tokens, i + 1) != "(":
        return False
    if v == "fopen":
        return True
    if v != "rename":
        return False
    if _is_std_qualified(tokens, i):
        return True
    return (_value(tokens, i - 1) == "::"
            and _value(tokens, i - 2) == "filesystem"
            and _is_std_qualified(tokens, i - 2))


def scan_file(relpath, tokens, nolint, rules):
    """Run the requested lint rules over one file's token stream;
    `nolint` is the lexer's line -> exempted-rules map."""
    findings = []
    reported = set()

    def report(line, rule):
        if rule in rules and (line, rule) not in reported \
                and rule not in nolint.get(line, ()):
            reported.add((line, rule))
            findings.append(Finding(relpath, line, rule,
                                    _MESSAGES[rule]))

    header = relpath.endswith(_HEADER_EXTS)
    if header and "include-guard" in rules and not _has_guard(tokens):
        # File-level: no line carries the escape, so none applies.
        findings.append(Finding(relpath, 1, "include-guard",
                                _MESSAGES["include-guard"]))

    boundaries = (_statement_boundaries(tokens)
                  if "discarded-result" in rules else set())
    for i, tok in enumerate(tokens):
        if tok.kind != "id":
            continue
        v = tok.value
        if header and v == "using" \
                and _value(tokens, i + 1) == "namespace":
            report(tok.line, "using-namespace")
        if (header and v == "double" and i + 2 < len(tokens)
                and tokens[i + 1].kind == "id"
                and _UNIT_NAME_RE.fullmatch(tokens[i + 1].value)
                and tokens[i + 2].value in (",", ")", "=")):
            report(tok.line, "raw-unit-double")
        if _discarded_result(tokens, i, boundaries):
            report(tok.line, "discarded-result")
        if _raw_thread(tokens, i):
            report(tok.line, "raw-thread")
        if v in _AFFINITY_CALLS and _value(tokens, i + 1) == "(":
            report(tok.line, "raw-affinity")
        if _raw_trace_next(tokens, i):
            report(tok.line, "raw-trace-next")
        if _raw_result_write(tokens, i):
            report(tok.line, "raw-result-write")
    return findings
