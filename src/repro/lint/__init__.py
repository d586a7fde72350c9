"""``repro lint`` — the repo's determinism & plugin-contract static analyzer.

Every result this reproduction produces rests on invariants that used to be
enforced only by convention: simulation code must draw randomness from
seeded ``random.Random`` instances, registered plugins must declare their
full capability metadata, and pool-dispatched work must be picklable.  This
package checks those invariants *statically* (stdlib :mod:`ast`, no
third-party dependency), so a silently wrong contract — like the
``sequencer_sc`` order-tolerance metadata a randomized hunt once had to
discover — fails ``make lint`` at commit time instead of surfacing
hours later in a hunt.

Layout:

* :mod:`repro.lint.diagnostics` — :class:`Diagnostic`, rule metadata and the
  ``# repro: noqa[RULE]`` suppression parser;
* :mod:`repro.lint.engine` — file discovery (``*.py`` only), rule dispatch,
  suppression filtering and the documented allowlist;
* :mod:`repro.lint.rules` — one module per rule family (determinism, arena
  discipline, registry contracts, multiprocessing hygiene, exception
  discipline);
* :mod:`repro.lint.thirdparty` — the gated ``ruff``/``mypy`` runners
  (skipped with a notice when the tools are not installed, so the custom
  rules stay runnable in minimal environments).

Data is checked where it is loaded, not here: the spec JSON codec by
``tests/spec/test_spec_codec.py``, the hunt-reproducer corpus by
:func:`repro.experiments.hunted.hunted_scenarios` at import.

Entry points: ``repro lint [paths...]`` on the CLI and ``make lint`` in CI.
"""

from .diagnostics import Diagnostic, Rule
from .engine import ALLOWLIST, discover_files, lint_paths, run_lint
from .rules import all_rules

__all__ = [
    "ALLOWLIST",
    "Diagnostic",
    "Rule",
    "all_rules",
    "discover_files",
    "lint_paths",
    "run_lint",
]
