"""Tooling guard: every ``make <target>`` and every ``python -m repro <verb>``
the docs and CI name must exist."""

import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

#: Where a dangling target would mislead a reader or break a pipeline.
#: (benchmarks/e2e/README.md is the historical record of what superseded
#: which legacy target, so it is deliberately not scanned.)
SOURCES = sorted(
    [ROOT / "README.md", ROOT / "EXPERIMENTS.md",
     ROOT / ".github" / "workflows" / "ci.yml",
     ROOT / ".claude" / "skills" / "verify" / "SKILL.md"]
    + list((ROOT / "docs").glob("*.md"))
)
MAKE_CALL = re.compile(r"\bmake ([a-z][\w-]*)")
REPRO_CALL = re.compile(r"python -m repro ([a-z][\w-]*)(?: ([a-z][\w-]*))?")
#: Markdown prose says "make" too; only code spans and fences name targets.
MARKDOWN_CODE = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)


@pytest.fixture(scope="module")
def makefile():
    return (ROOT / "Makefile").read_text(encoding="utf-8")


@pytest.fixture(scope="module")
def rules(makefile):
    return set(re.findall(r"^([A-Za-z][\w-]*):", makefile, re.MULTILINE))


def named(pattern, path: Path):
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".md":
        text = "\n".join(MARKDOWN_CODE.findall(text))
    return set(pattern.findall(text))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_named_make_target_is_a_rule(path, rules):
    assert named(MAKE_CALL, path) - rules == set()


def sub_commands(parser):
    """``name -> sub-parser`` of an argparse parser ({} for a leaf)."""
    return parser._subparsers._group_actions[0].choices if parser._subparsers else {}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_named_cli_verb_exists(path):
    from repro.cli import build_parser

    verbs = sub_commands(build_parser())
    for verb, sub_verb in sorted(named(REPRO_CALL, path)):
        assert verb in verbs, f"python -m repro {verb}"
        groups = sub_commands(verbs[verb])
        assert not groups or not sub_verb or sub_verb in groups, \
            f"python -m repro {verb} {sub_verb}"


def test_every_phony_entry_has_a_rule(makefile, rules):
    phony = re.search(r"^\.PHONY:(.*)$", makefile, re.MULTILINE).group(1).split()
    assert phony and set(phony) - rules == set()


def test_every_script_a_recipe_runs_exists(makefile):
    scripts = set(re.findall(r"\$\(PYTHON\) ([\w/.-]+\.py)", makefile))
    assert "benchmarks/timed_profile.py" in scripts  # what `make profile` runs
    assert [s for s in sorted(scripts) if not (ROOT / s).is_file()] == []
