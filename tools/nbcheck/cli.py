"""nbcheck driver.

Usage (from the repo root, after configuring a build so the
compile_commands.json symlink exists):

    python3 tools/nbcheck [--backend auto|tokens|libclang] [--json]

Exit status: 0 clean, 1 findings, 2 configuration error,
3 --require-libclang unmet.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import clangast, compdb, config, includes, lexer, lintrules, \
    tokenscan
from .findings import Finding, sort_key

_EXTS = (".cc", ".hh", ".cpp", ".hpp", ".h")
_CODE_FAMILIES = ("determinism", "result", "fp-order")


def discover_files(root, cfg):
    """Every C++ file under any configured scope root, sorted,
    repo-relative."""
    roots = set()
    for family_roots in cfg.scopes.values():
        roots.update(family_roots)
    # A root nested in another (src/sim in src) is walked once.
    roots = {r for r in roots
             if not any(r.startswith(o + "/") for o in roots)}
    found = []
    for scope_root in sorted(roots):
        base = os.path.join(root, scope_root)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(_EXTS):
                    rel = os.path.relpath(
                        os.path.join(dirpath, name), root)
                    rel = rel.replace(os.sep, "/")
                    if not cfg.excluded(rel):
                        found.append(rel)
    return found


def run_analysis(root, cfg, backend="auto", db=None, notes=None):
    """Run every pass; returns (kept, suppressed) finding lists.
    `backend` must already be resolved to 'tokens' or 'libclang'."""
    notes = notes if notes is not None else []
    files = discover_files(root, cfg)

    include_dirs = db.include_dirs() if db else []
    if not include_dirs:
        include_dirs = [os.path.join(root, "src")]

    findings = []

    # Lex everything once; the include graph, the lint rules and the
    # token backend share the result.
    file_tokens = {}
    file_includes = {}
    file_nolint = {}
    for rel in files:
        try:
            with open(os.path.join(root, rel),
                      encoding="utf-8") as fh:
                text = fh.read()
        except OSError as e:
            findings.append(Finding(rel, 1, "io-error", str(e)))
            continue
        tokens, incs, nolint = lexer.lex(text)
        file_tokens[rel] = tokens
        file_includes[rel] = incs
        file_nolint[rel] = nolint

    # Pass 1: layering — always token-derived (the preprocessor
    # must not hide edges; see includes.py).
    edges = includes.build_edges(file_includes, include_dirs, root)
    findings.extend(includes.check_layering(cfg, edges))

    # Pass 2: the repo lint rules — token-derived under either
    # backend too, each rule scoped by its own [scopes] entry.
    for rel, tokens in file_tokens.items():
        rules = {r for r in lintrules.RULES if cfg.in_scope(r, rel)}
        if rules:
            findings.extend(lintrules.scan_file(
                rel, tokens, file_nolint[rel], rules))

    # Passes 3-5: determinism / result / fp-order.
    def families_for(rel):
        return {f for f in _CODE_FAMILIES if cfg.in_scope(f, rel)}

    if backend == "libclang":
        scanner = clangast.ClangScanner(root, families_for)
        for command in (db.commands if db else []):
            scanner.scan_tu(command)
        findings.extend(scanner.findings)
        for err in scanner.parse_errors:
            notes.append(f"libclang: failed to parse {err}")
        if db is None or not db.commands:
            notes.append("libclang backend had no compilation "
                         "database entries to parse")
    else:
        for rel, tokens in file_tokens.items():
            fams = families_for(rel)
            if fams:
                findings.extend(
                    tokenscan.scan_file(rel, tokens, fams))

    kept, suppressed = cfg.filter_allowed(sorted(findings,
                                                 key=sort_key))
    return kept, suppressed


def resolve_backend(requested, require_libclang):
    """Map auto/tokens/libclang to a concrete backend, or exit 3
    with the required-but-missing message."""
    if requested == "tokens" and not require_libclang:
        return "tokens", None
    if clangast.available():
        return "libclang", None
    reason = clangast.unavailable_reason() or "unknown"
    if require_libclang or requested == "libclang":
        print("nbcheck: error: the libclang backend is required "
              f"but unavailable: {reason}.\n"
              "Install the clang Python bindings (e.g. "
              "`apt install python3-clang`) so nbcheck can parse "
              "the compilation database, or rerun with "
              "`--backend tokens` to use the built-in "
              "token backend.", file=sys.stderr)
        sys.exit(3)
    return "tokens", f"libclang unavailable ({reason}); using the " \
                     f"token backend"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="nbcheck", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: inferred "
                             "from this file's location)")
    parser.add_argument("--config", default=None,
                        help="path to nbcheck.toml (default: "
                             "<root>/tools/nbcheck/nbcheck.toml)")
    parser.add_argument("--compdb", default=None,
                        help="compile_commands.json (default: "
                             "auto-discovered at <root> or in "
                             "<root>/build*/)")
    parser.add_argument("--backend",
                        choices=("auto", "tokens", "libclang"),
                        default="auto")
    parser.add_argument("--require-libclang", action="store_true",
                        help="fail (exit 3) instead of falling back "
                             "to the token backend")
    parser.add_argument("--strict-allowlist", action="store_true",
                        help="treat allowlist entries that matched "
                             "nothing as findings")
    parser.add_argument("--json", action="store_true",
                        help="emit findings as a JSON array")
    args = parser.parse_args(argv)

    root = args.root
    if root is None:
        here = os.path.dirname(os.path.abspath(__file__))
        root = os.path.dirname(os.path.dirname(here))
    root = os.path.abspath(root)

    config_path = args.config or os.path.join(
        root, "tools", "nbcheck", "nbcheck.toml")
    try:
        cfg = config.load(config_path)
    except config.ConfigError as e:
        print(f"nbcheck: config error: {e}", file=sys.stderr)
        return 2

    db = None
    db_path = args.compdb or compdb.find_database(root)
    if db_path is not None:
        try:
            db = compdb.load(db_path)
        except (OSError, ValueError) as e:
            print(f"nbcheck: bad compilation database: {e}",
                  file=sys.stderr)
            return 2

    backend, note = resolve_backend(args.backend,
                                    args.require_libclang)
    notes = []
    if note:
        notes.append(note)
    if db is None:
        notes.append("no compilation database found; configure a "
                     "build (cmake -B build -S .) to get exact "
                     "include paths" if backend == "tokens" else
                     "no compilation database found")

    kept, suppressed = run_analysis(root, cfg, backend=backend,
                                    db=db, notes=notes)

    if args.strict_allowlist:
        rel_cfg = os.path.relpath(config_path, root).replace(
            os.sep, "/")
        for entry in cfg.unused_allow_entries():
            kept.append(Finding(
                rel_cfg, 1, "allowlist-unused",
                f"allow entry (rule={entry.rule}, "
                f"path={entry.path}) matched nothing; delete it"))
    else:
        for entry in cfg.unused_allow_entries():
            notes.append(f"allow entry (rule={entry.rule}, "
                         f"path={entry.path}) matched nothing")

    if args.json:
        print(json.dumps([f.as_json() for f in kept], indent=2))
    else:
        for f in kept:
            print(f.render())
        for n in notes:
            print(f"nbcheck: note: {n}", file=sys.stderr)
        if kept:
            print(f"\n{len(kept)} finding(s) "
                  f"({len(suppressed)} allowlisted, "
                  f"backend={backend}).", file=sys.stderr)
        else:
            print(f"nbcheck: clean "
                  f"({len(suppressed)} allowlisted finding(s), "
                  f"backend={backend})")
    return 1 if kept else 0
