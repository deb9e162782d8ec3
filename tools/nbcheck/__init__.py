"""nbcheck — compilation-database-driven project analyzer.

Four check families over the nanobus tree (layering DAG,
determinism audit, Result discipline, FP accumulation order) plus
eight token-stream lint rules (repo conventions). See
docs/STATIC_ANALYSIS.md for the rule catalog and
tools/nbcheck/nbcheck.toml for the declared layer DAG and the
allowlist.
"""

__version__ = "1.0.0"
