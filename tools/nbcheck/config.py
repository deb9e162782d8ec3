"""nbcheck.toml loader and validator.

The config is the contract the tree is checked against:

* ``[layering.modules]`` declares the layer DAG — each module's layer
  number and the modules it may include. Dependencies on *higher*
  layers are only legal as explicit ``inversions`` with a written
  justification, and the union of deps + inversions must stay
  acyclic (an inversion is a declared exception, not a cycle
  licence).
* ``[scopes]`` maps each check family, and each lint rule, to the
  directories it runs over.
* ``[[allow]]`` entries are the only sanctioned suppressions: a rule
  name plus a path glob plus a reason. The driver reports allowlist
  entries that matched nothing so they cannot rot silently.
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field

from .lintrules import RULES as LINT_RULES

CHECK_FAMILIES = ("layering", "determinism", "result",
                  "fp-order") + LINT_RULES


class ConfigError(Exception):
    pass


@dataclass
class Module:
    name: str
    layer: int
    deps: list = field(default_factory=list)
    # name -> justification, for declared upward (inverted) edges
    inversions: dict = field(default_factory=dict)

    def allowed_targets(self):
        return set(self.deps) | set(self.inversions)


@dataclass
class AllowEntry:
    rule: str
    path: str
    reason: str
    hits: int = 0

    def matches(self, finding):
        if self.rule != "*" and self.rule != finding.rule:
            return False
        return (fnmatch.fnmatchcase(finding.path, self.path)
                or finding.path == self.path)


@dataclass
class Config:
    path: str
    modules: dict = field(default_factory=dict)
    # check family or lint rule -> list of directories
    scopes: dict = field(default_factory=dict)
    allow: list = field(default_factory=list)
    # modules whose edges are not checked (top-of-stack consumers)
    unconstrained: list = field(default_factory=list)
    # directories outside every scope (deliberately-bad fixtures)
    exclude: list = field(default_factory=list)

    def module_for(self, relpath):
        """Map a repo-relative path to its module name: src/<m>/...
        is module <m>; anything else belongs to its first path
        segment (bench/, tests/, examples/, tools/)."""
        parts = relpath.split("/")
        if not parts:
            return None
        if parts[0] == "src" and len(parts) > 1:
            return parts[1]
        return parts[0]

    def in_scope(self, family, relpath):
        if self.excluded(relpath):
            return False
        roots = self.scopes.get(family, [])
        return any(relpath == r or relpath.startswith(r + "/")
                   for r in roots)

    def excluded(self, relpath):
        return any(relpath == e or relpath.startswith(e + "/")
                   for e in self.exclude)

    def filter_allowed(self, findings):
        """Split findings into (kept, suppressed); bumps hit counts
        on the entries that did the suppressing."""
        kept, suppressed = [], []
        for f in findings:
            entry = next((a for a in self.allow if a.matches(f)), None)
            if entry is None:
                kept.append(f)
            else:
                entry.hits += 1
                suppressed.append(f)
        return kept, suppressed

    def unused_allow_entries(self):
        return [a for a in self.allow if a.hits == 0]


def _check_dag(modules):
    """Validate layer directions and acyclicity of deps+inversions."""
    for mod in modules.values():
        for dep in mod.deps:
            if dep not in modules:
                raise ConfigError(
                    f"module '{mod.name}' depends on undeclared "
                    f"module '{dep}'")
            if modules[dep].layer > mod.layer:
                raise ConfigError(
                    f"module '{mod.name}' (layer {mod.layer}) lists "
                    f"'{dep}' (layer {modules[dep].layer}) as a plain "
                    f"dep; an upward edge must be declared as an "
                    f"inversion with a justification")
        for target, reason in mod.inversions.items():
            if target not in modules:
                raise ConfigError(
                    f"module '{mod.name}' declares an inversion to "
                    f"undeclared module '{target}'")
            if modules[target].layer <= mod.layer:
                raise ConfigError(
                    f"module '{mod.name}' declares '{target}' as an "
                    f"inversion, but it is not on a higher layer — "
                    f"list it as a plain dep")
            if not reason.strip():
                raise ConfigError(
                    f"inversion {mod.name} -> {target} needs a "
                    f"non-empty reason")
    # Kahn's algorithm over the union graph.
    indeg = {name: 0 for name in modules}
    for mod in modules.values():
        for target in mod.allowed_targets():
            indeg[target] += 1
    queue = sorted(name for name, d in indeg.items() if d == 0)
    seen = 0
    while queue:
        name = queue.pop()
        seen += 1
        for target in sorted(modules[name].allowed_targets()):
            indeg[target] -= 1
            if indeg[target] == 0:
                queue.append(target)
    if seen != len(modules):
        cyclic = sorted(n for n, d in indeg.items() if d > 0)
        raise ConfigError(
            "declared module graph has a cycle involving: "
            + ", ".join(cyclic))


def load(path):
    try:
        with open(path, "rb") as fh:
            raw = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as e:
        raise ConfigError(f"{path}: {e}") from e

    layering = raw.get("layering", {})
    modules = {}
    for name, spec in layering.get("modules", {}).items():
        if "layer" not in spec:
            raise ConfigError(f"module '{name}' is missing 'layer'")
        inversions = {}
        for inv in spec.get("inversions", []):
            if "to" not in inv:
                raise ConfigError(
                    f"module '{name}': inversion entry missing 'to'")
            inversions[inv["to"]] = inv.get("reason", "")
        modules[name] = Module(name=name, layer=int(spec["layer"]),
                               deps=list(spec.get("deps", [])),
                               inversions=inversions)
    if modules:
        _check_dag(modules)

    scopes = {}
    scopes_raw = dict(raw.get("scopes", {}))
    exclude = [e.rstrip("/")
               for e in scopes_raw.pop("exclude", [])]
    for family, roots in scopes_raw.items():
        if family not in CHECK_FAMILIES:
            raise ConfigError(
                f"[scopes] has unknown check family '{family}' "
                f"(known: {', '.join(CHECK_FAMILIES)})")
        scopes[family] = [r.rstrip("/") for r in roots]

    allow = []
    for entry in raw.get("allow", []):
        if "rule" not in entry or "path" not in entry:
            raise ConfigError(
                "[[allow]] entries need 'rule' and 'path'")
        if not entry.get("reason", "").strip():
            raise ConfigError(
                f"[[allow]] {entry['rule']} @ {entry['path']}: a "
                f"non-empty 'reason' is required")
        allow.append(AllowEntry(rule=entry["rule"],
                                path=entry["path"],
                                reason=entry["reason"]))

    unconstrained = list(layering.get("unconstrained", []))
    return Config(path=path, modules=modules, scopes=scopes,
                  allow=allow, unconstrained=unconstrained,
                  exclude=exclude)
