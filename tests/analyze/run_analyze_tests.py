#!/usr/bin/env python3
"""Self-tests for tools/nbcheck (ctest label: analyze).

Five groups, each asserting that a check family *fires* on a
known-bad fixture and stays quiet on the matching known-good one —
so disabling any check fails this suite, which is the acceptance
bar for the analyzer:

  1. token-backend rule fixtures at the top of fixtures/checks/,
     plus the converse (scanning with the owning family disabled
     must make the finding disappear — proves the expectation is
     testing the check, not another pass);
  2. the lint rule fixtures: fixtures/checks/ below the top level is
     a small source tree (src/, bench/, tests/) run through the full
     analysis with the real nbcheck.toml, so each rule's [scopes]
     entry, its [[allow]] sanctioned sites and the per-line NOLINT
     escape are tested as configured — on the token backend and,
     when available, the libclang one (the lint rules are
     token-derived under both), plus the same converse;
  3. the synthetic layering project under fixtures/layering/
     (back-edge, undeclared edge, unknown module, and a declared
     inversion that must stay silent);
  4. config validation (cycles, undeclared upward deps, reasonless
     allow entries must be rejected) and allowlist bookkeeping;
  5. the --require-libclang contract, and — whenever the clang
     bindings are importable — the same rule fixtures through the
     libclang backend, which keeps the two backends in agreement.
"""

import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(REPO, "tools"))

from nbcheck import clangast, cli, config, lexer, tokenscan  # noqa: E402
from nbcheck import lintrules  # noqa: E402
from nbcheck.compdb import CompileCommand  # noqa: E402

CHECKS_DIR = os.path.join(HERE, "fixtures", "checks")
LAYERING_DIR = os.path.join(HERE, "fixtures", "layering")
CONFIG = os.path.join(REPO, "tools", "nbcheck", "nbcheck.toml")
ALL_FAMILIES = {"determinism", "result", "fp-order"}

# fixture file -> exact set of rules expected to fire. Paths with a
# directory form the lint source tree (group 2); the rest are scanned
# one file at a time with every code family on (group 1).
EXPECT = {
    "det_wallclock_bad.cc": {"det-wallclock"},
    "det_rand_bad.cc": {"det-legacy-rand"},
    "det_random_device_bad.cc": {"det-random-device"},
    "det_thread_id_bad.cc": {"det-thread-id"},
    "det_pointer_keyed_bad.cc": {"det-pointer-keyed"},
    "det_clean_ok.cc": set(),
    "result_throw_bad.cc": {"result-throw"},
    "result_exit_bad.cc": {"result-exit"},
    "result_abort_bad.cc": {"result-abort"},
    "result_clean_ok.cc": set(),
    "fp_accum_bad.cc": {"fp-accum-parallel-for"},
    "fp_accum_ok.cc": set(),
    "src/util/discarded_member_bad.cc": {"discarded-result"},
    "src/util/discarded_checked_bad.cc": {"discarded-result"},
    "src/util/discarded_consumed_ok.cc": set(),
    "src/util/discarded_nolint_ok.cc": set(),
    "src/util/unit_double_param_bad.hh": {"raw-unit-double"},
    "src/util/unit_double_const_bad.hh": {"raw-unit-double"},
    "src/util/unit_typed_ok.hh": set(),
    "src/util/using_namespace_bad.hh": {"using-namespace"},
    "src/util/include_guard_bad.hh": {"include-guard"},
    "src/thermal/thread_ctor_bad.cc": {"raw-thread"},
    "src/thermal/jthread_bad.cc": {"raw-thread"},
    "src/thermal/async_bad.cc": {"raw-thread"},
    "src/thermal/thread_nonspawning_ok.cc": set(),
    "src/thermal/thread_comment_ok.cc": set(),
    "src/thermal/thread_nolint_ok.cc": set(),
    "src/exec/jthread_exempt_ok.cc": set(),
    "src/sim/affinity_pthread_bad.cc": {"raw-affinity"},
    "src/sim/affinity_sched_bad.cc": {"raw-affinity"},
    "src/sim/affinity_nolint_ok.cc": set(),
    "src/sim/affinity_comment_ok.cc": set(),
    "src/exec/affinity_bad.cc": {"raw-affinity"},
    "src/sim/trace_next_bad.cc": {"raw-trace-next"},
    "bench/trace_next_bad.cc": {"raw-trace-next"},
    "src/trace/trace_next_ok.cc": set(),
    "tests/sim/trace_next_ok.cc": set(),
    "src/sim/trace_next_batch_ok.cc": set(),
    "src/sim/trace_next_nolint_ok.cc": set(),
    "src/sim/trace_next_comment_ok.cc": set(),
    "bench/rng_next_ok.cc": set(),
    "src/sim/result_std_fopen_bad.cc": {"raw-result-write"},
    "src/sim/result_fopen_bad.cc": {"raw-result-write"},
    "src/sim/result_rename_bad.cc": {"raw-result-write"},
    "src/sim/result_fs_rename_bad.cc": {"raw-result-write"},
    "bench/result_fopen_bad.cc": {"raw-result-write"},
    "bench/result_rename_bad.hh": {"raw-result-write"},
    "src/util/atomicfile.cc": set(),
    "tests/util/result_rename_ok.cc": set(),
    "src/sim/result_nolint_ok.cc": set(),
    "src/sim/result_remove_ok.cc": set(),
    "src/sim/result_reopen_ok.cc": set(),
    "src/sim/result_comment_ok.cc": set(),
    "src/sim/det_nolint_ignored_bad.cc": {"det-legacy-rand"},
}
FLAT_EXPECT = {k: v for k, v in EXPECT.items() if "/" not in k}
TREE_EXPECT = {k: v for k, v in EXPECT.items() if "/" in k}

# lint fixtures whose finding an [[allow]] entry must suppress
SANCTIONED = {
    "src/exec/jthread_exempt_ok.cc": "raw-thread",
    "src/util/atomicfile.cc": "raw-result-write",
}

LAYERING_EXPECT = {
    "src/util/bad_up.hh": {"layering-back-edge"},
    "src/tech/node.hh": {"layering-undeclared-edge"},
    "src/la/mystery_user.hh": {"layering-unknown-module"},
}

failures = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"  [{status}] {name}" + (f": {detail}" if not ok else ""))
    if not ok:
        failures.append(name)


def family_of(rule):
    """The [scopes] key that switches `rule` on."""
    if rule in lintrules.RULES:
        return rule
    return {"det": "determinism", "res": "result",
            "fp-": "fp-order"}[rule[:3]]


def token_rules(fname, families):
    with open(os.path.join(CHECKS_DIR, fname),
              encoding="utf-8") as fh:
        tokens, _, _ = lexer.lex(fh.read())
    return {f.rule
            for f in tokenscan.scan_file(fname, tokens, families)}


def test_token_fixtures():
    print("token-backend rule fixtures:")
    for fname in sorted(FLAT_EXPECT):
        expected = EXPECT[fname]
        got = token_rules(fname, ALL_FAMILIES)
        check(f"tokens:{fname}", got == expected,
              f"expected {sorted(expected)}, got {sorted(got)}")
        # The converse: disabling the owning family must silence
        # exactly those findings.
        for rule in expected:
            fam = family_of(rule)
            without = token_rules(fname, ALL_FAMILIES - {fam})
            check(f"tokens:{fname}:disabled-{fam}",
                  rule not in without,
                  f"'{rule}' still fires with {fam} disabled")


def tree_findings(backend, drop_scope=None):
    """Run the analysis over the lint source tree with the real config
    (minus one [scopes] entry); returns ({path: rules}, suppressed)."""
    cfg = config.load(CONFIG)
    cfg.scopes.pop(drop_scope, None)
    kept, suppressed = cli.run_analysis(CHECKS_DIR, cfg,
                                        backend=backend, db=None)
    got = {}
    for f in kept:
        got.setdefault(f.path, set()).add(f.rule)
    return got, suppressed


def test_lint_fixtures():
    print("lint rule fixtures (source tree, real nbcheck.toml):")
    discovered = set(cli.discover_files(CHECKS_DIR,
                                        config.load(CONFIG)))
    check("lint:every-fixture-has-expect",
          discovered == set(TREE_EXPECT),
          f"without EXPECT: {sorted(discovered - set(TREE_EXPECT))}, "
          f"missing: {sorted(set(TREE_EXPECT) - discovered)}")
    backends = ["tokens"] + (["libclang"] if clangast.available()
                             else [])
    for backend in backends:
        got, suppressed = tree_findings(backend)
        for path in sorted(TREE_EXPECT):
            expected = TREE_EXPECT[path]
            if backend != "tokens":
                # No compilation database here, so only the
                # token-derived lint rules run.
                expected = expected & set(lintrules.RULES)
            check(f"{backend}:{path}",
                  got.get(path, set()) == expected,
                  f"expected {sorted(expected)}, "
                  f"got {sorted(got.get(path, set()))}")
        hits = {(f.path, f.rule) for f in suppressed}
        for path, rule in sorted(SANCTIONED.items()):
            check(f"{backend}:{path}:allowlisted", (path, rule) in hits,
                  f"no [[allow]] hit for {rule}")
    # The converse: dropping a rule's [scopes] entry must silence it.
    for path in sorted(TREE_EXPECT):
        for rule in TREE_EXPECT[path]:
            got, _ = tree_findings("tokens", drop_scope=family_of(rule))
            check(f"tokens:{path}:unscoped-{family_of(rule)}",
                  rule not in got.get(path, set()),
                  f"'{rule}' still fires without its scope")


def test_layering_fixture():
    print("layering fixture project:")
    cfg = config.load(os.path.join(LAYERING_DIR, "conf.toml"))
    kept, suppressed = cli.run_analysis(
        LAYERING_DIR, cfg, backend="tokens", db=None)
    got = {}
    for f in kept:
        got.setdefault(f.path, set()).add(f.rule)
    check("layering:findings", got == LAYERING_EXPECT,
          f"expected {LAYERING_EXPECT}, got {got}")
    check("layering:no-suppressions", not suppressed,
          f"unexpected allowlist hits: {suppressed}")
    silent = [p for p in ("src/la/uses_exec.hh",
                          "src/la/matrix.hh",
                          "src/exec/pool.hh") if p in got]
    check("layering:inversion-and-deps-silent", not silent,
          f"findings on sanctioned files: {silent}")


def _expect_config_error(name, text):
    with tempfile.NamedTemporaryFile("w", suffix=".toml",
                                     delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        config.load(path)
        check(name, False, "ConfigError not raised")
    except config.ConfigError:
        check(name, True)
    finally:
        os.unlink(path)


def test_config_validation():
    print("config validation:")
    _expect_config_error("config:cycle-rejected", """
[layering.modules]
a = { layer = 0, deps = [], inversions = [
    { to = "b", reason = "fixture" } ] }
b = { layer = 1, deps = ["a"] }
""")
    _expect_config_error("config:upward-plain-dep-rejected", """
[layering.modules]
a = { layer = 0, deps = ["b"] }
b = { layer = 1, deps = [] }
""")
    _expect_config_error("config:reasonless-inversion-rejected", """
[layering.modules]
a = { layer = 0, deps = [], inversions = [
    { to = "b", reason = "  " } ] }
b = { layer = 1, deps = [] }
""")
    _expect_config_error("config:reasonless-allow-rejected", """
[[allow]]
rule = "det-wallclock"
path = "src/x.cc"
""")
    # Allowlist bookkeeping: matching entries suppress and count;
    # unmatched entries surface.
    from nbcheck.config import AllowEntry, Config
    from nbcheck.findings import Finding
    cfg = Config(path="<mem>", allow=[
        AllowEntry("det-wallclock", "src/exec/*", "fixture"),
        AllowEntry("result-throw", "src/never/*", "fixture"),
    ])
    kept, suppressed = cfg.filter_allowed([
        Finding("src/exec/a.cc", 1, "det-wallclock", "m"),
        Finding("src/sim/b.cc", 2, "det-wallclock", "m"),
    ])
    check("allowlist:suppresses-matching",
          len(suppressed) == 1
          and suppressed[0].path == "src/exec/a.cc",
          f"suppressed={suppressed}")
    check("allowlist:keeps-unmatched",
          len(kept) == 1 and kept[0].path == "src/sim/b.cc",
          f"kept={kept}")
    unused = cfg.unused_allow_entries()
    check("allowlist:reports-unused",
          len(unused) == 1 and unused[0].rule == "result-throw",
          f"unused={unused}")


def test_libclang_contract():
    print("libclang backend:")
    if not clangast.available():
        # The required-but-missing path must fail loudly, with a
        # message that says what to install.
        proc = subprocess.run(
            [sys.executable, os.path.join(REPO, "tools", "nbcheck"),
             "--require-libclang", "--root", REPO],
            capture_output=True, text=True)
        check("require-libclang:exit-3", proc.returncode == 3,
              f"rc={proc.returncode}, stderr={proc.stderr[:200]}")
        check("require-libclang:message",
              "libclang backend is required" in proc.stderr
              and "python3-clang" in proc.stderr,
              f"stderr={proc.stderr[:200]}")
        print("  (bindings unavailable; AST fixture pass skipped)")
        return
    scanner = clangast.ClangScanner(
        CHECKS_DIR, lambda rel: ALL_FAMILIES)
    for fname in sorted(FLAT_EXPECT):
        path = os.path.join(CHECKS_DIR, fname)
        scanner.scan_tu(CompileCommand(
            file=path, directory=CHECKS_DIR,
            args=["c++", "-std=c++20", "-c", path]))
    check("libclang:no-parse-errors", not scanner.parse_errors,
          f"{scanner.parse_errors}")
    got = {}
    for f in scanner.findings:
        got.setdefault(f.path, set()).add(f.rule)
    for fname in sorted(FLAT_EXPECT):
        check(f"libclang:{fname}",
              got.get(fname, set()) == EXPECT[fname],
              f"expected {sorted(EXPECT[fname])}, "
              f"got {sorted(got.get(fname, set()))}")


def main():
    test_token_fixtures()
    test_lint_fixtures()
    test_layering_fixture()
    test_config_validation()
    test_libclang_contract()
    if failures:
        print(f"\n{len(failures)} analyze self-test failure(s): "
              f"{failures}", file=sys.stderr)
        return 1
    print("\nanalyze self-tests: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
