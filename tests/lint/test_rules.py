"""Fixture-driven rule tests: each code fires on its bad snippet, stays
quiet on its good one.

The committed fixtures live in ``tests/lint/fixtures/{bad,good}/<CODE>.py``
(the engine's discovery deliberately skips ``fixtures`` directories, so the
self-host lint never trips over them).  Because most rules are scoped by
package, the harness plants each fixture inside a throwaway fake tree
(``<tmp>/src/repro/<subpackage>/...``) before linting it — the same path
shapes the real tree has.
"""

import os
import shutil

import pytest

from repro.lint import discover_files, lint_paths
from repro.lint.engine import load_context, run_lint

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

#: Where each rule's fixture must sit for the rule to be in scope.
DESTINATIONS = {
    "RPR101": "src/repro/netsim/snippet.py",
    "RPR102": "src/repro/analysis/snippet.py",
    "RPR103": "src/repro/netsim/snippet.py",
    "RPR104": "src/repro/core/snippet.py",
    "RPR105": "src/repro/arena/snippet.py",
    "RPR201": "src/repro/mcs/snippet.py",
    "RPR202": "src/repro/workloads/snippet.py",
    "RPR203": "src/repro/mcs/snippet.py",
    "RPR204": "src/repro/workloads/snippet.py",
    "RPR401": "src/repro/experiments/snippet.py",
    "RPR402": "src/repro/experiments/snippet.py",
    "RPR501": "src/repro/core/snippet.py",
}

ALL_CODES = sorted(DESTINATIONS)


def _fixture_path(kind, code):
    return os.path.join(FIXTURES, kind, code + ".py")


def _plant_and_lint(tmp_path, kind, code):
    target = tmp_path / DESTINATIONS[code]
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(_fixture_path(kind, code), target)
    return lint_paths([str(tmp_path)])


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_fires(tmp_path, code):
    diagnostics = _plant_and_lint(tmp_path, "bad", code)
    fired = {d.code for d in diagnostics}
    assert code in fired, (
        f"{code} did not fire on its bad fixture; got {sorted(fired)}"
    )


@pytest.mark.parametrize("code", ALL_CODES)
def test_bad_fixture_fires_nothing_foreign(tmp_path, code):
    """A bad fixture demonstrates exactly its own family, nothing else."""
    diagnostics = _plant_and_lint(tmp_path, "bad", code)
    foreign = {d.code for d in diagnostics} - {code}
    assert not foreign, f"bad fixture for {code} also fired {sorted(foreign)}"


@pytest.mark.parametrize("code", ALL_CODES)
def test_good_fixture_stays_quiet(tmp_path, code):
    diagnostics = _plant_and_lint(tmp_path, "good", code)
    assert not diagnostics, (
        f"good fixture for {code} fired "
        f"{[d.render() for d in diagnostics]}"
    )


def test_rpr102_resolves_a_function_scope_numpy_import(tmp_path):
    """The numeric apps import numpy inside the functions that compute (only
    their annotations see a module-level name, under ``TYPE_CHECKING``)."""
    target = tmp_path / "src/repro/apps/snippet.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "def sample(seed: int) -> np.ndarray:\n"
        "    import numpy as np\n"
        "    return np.random.default_rng(seed).random(3) + np.random.rand(3)\n"
        "def entropy() -> np.ndarray:\n"
        "    import numpy as np\n"
        "    return np.random.default_rng().random(3)\n"
    )
    diagnostics = lint_paths([str(tmp_path)])
    assert [(d.code, d.line) for d in diagnostics] == [("RPR102", 6), ("RPR102", 9)]


def test_noqa_suppresses_named_code(tmp_path):
    target = tmp_path / "src/repro/netsim/snippet.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        "import random\n"
        "value = random.random()  # repro: noqa[RPR101]\n"
    )
    assert lint_paths([str(tmp_path)]) == []


def test_noqa_with_other_code_does_not_suppress(tmp_path):
    target = tmp_path / "src/repro/netsim/snippet.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        "import random\n"
        "value = random.random()  # repro: noqa[RPR103]\n"
    )
    diagnostics = lint_paths([str(tmp_path)])
    assert [d.code for d in diagnostics] == ["RPR101"]


def test_bare_noqa_suppresses_everything_on_the_line(tmp_path):
    target = tmp_path / "src/repro/netsim/snippet.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        "import random, time\n"
        "value = random.random() + time.time()  # repro: noqa\n"
    )
    assert lint_paths([str(tmp_path)]) == []


def test_select_restricts_to_named_codes(tmp_path):
    target = tmp_path / "src/repro/netsim/snippet.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        "import random, time\n"
        "value = random.random() + time.time()\n"
    )
    diagnostics = lint_paths([str(tmp_path)], select=["RPR103"])
    assert [d.code for d in diagnostics] == ["RPR103"]


def test_syntax_error_is_reported_not_crashed(tmp_path):
    target = tmp_path / "src/repro/core/snippet.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("def broken(:\n")
    diagnostics = lint_paths([str(tmp_path)])
    assert [d.code for d in diagnostics] == ["RPR001"]


def _plant_serve_fixture(tmp_path, kind, relative):
    target = tmp_path / relative
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(os.path.join(FIXTURES, kind, "RPR103_serve.py"), target)
    return target


def test_serve_package_is_wall_clock_scoped(tmp_path):
    """repro.serve joined the simulation packages: RPR103 fires there."""
    _plant_serve_fixture(tmp_path, "bad", "src/repro/serve/snippet.py")
    diagnostics = lint_paths([str(tmp_path)])
    assert {d.code for d in diagnostics} == {"RPR103"}


def test_serve_good_fixture_stays_quiet(tmp_path):
    _plant_serve_fixture(tmp_path, "good", "src/repro/serve/snippet.py")
    assert lint_paths([str(tmp_path)]) == []


def test_serve_service_allowlist_shields_only_service_py(tmp_path, monkeypatch):
    """The allowlist entry covers exactly src/repro/serve/service.py.

    The same wall-clock read is shielded there (the sanctioned lag/uptime
    metrics home) but fires one directory entry over — the entry cannot
    silently grow into a package-wide exemption.
    """
    _plant_serve_fixture(tmp_path, "bad", "src/repro/serve/service.py")
    _plant_serve_fixture(tmp_path, "bad", "src/repro/serve/monitor.py")
    monkeypatch.chdir(tmp_path)
    diagnostics = lint_paths(["src"])
    assert [d.code for d in diagnostics] == ["RPR103"]
    assert diagnostics[0].path.replace(os.sep, "/").endswith(
        "src/repro/serve/monitor.py"
    )


def test_arena_adapter_module_is_exempt_from_rpr105(tmp_path):
    """The adapter IS the sanctioned int-to-object boundary: the very code
    that fires RPR105 anywhere else in repro.arena is quiet there, and the
    exemption covers exactly that one module."""
    for relative in ("src/repro/arena/adapter.py", "src/repro/arena/check.py"):
        target = tmp_path / relative
        target.parent.mkdir(parents=True, exist_ok=True)
        shutil.copyfile(_fixture_path("bad", "RPR105"), target)
    diagnostics = lint_paths([str(tmp_path)])
    assert {d.code for d in diagnostics} == {"RPR105"}
    assert all(
        d.path.replace(os.sep, "/").endswith("src/repro/arena/check.py")
        for d in diagnostics
    )


def test_arena_is_wall_clock_scoped(tmp_path):
    """repro.arena joined the simulation packages: RPR103 fires there."""
    target = tmp_path / "src/repro/arena/snippet.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(_fixture_path("bad", "RPR103"), target)
    diagnostics = lint_paths([str(tmp_path)])
    assert "RPR103" in {d.code for d in diagnostics}


def test_run_lint_accepts_prebuilt_contexts(tmp_path):
    """The engine API the fixture tests rely on: explicit contexts."""
    target = tmp_path / "src/repro/mcs/snippet.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    shutil.copyfile(_fixture_path("bad", "RPR201"), target)
    context = load_context(str(target))
    diagnostics = run_lint([context])
    assert {d.code for d in diagnostics} == {"RPR201"}


def test_discovery_globs_only_python(tmp_path):
    """The linter lints Python: a JSON file anywhere, the hunt corpus
    included, is neither discovered nor reported (the corpus loader checks
    it at import)."""
    corpus = tmp_path / "src/repro/experiments/hunted"
    corpus.mkdir(parents=True)
    (corpus / "misnamed.json").write_text("not json\n")
    (corpus / "snippet.py").write_text("VALUE = 1\n")
    assert discover_files([str(tmp_path)]) == [str(corpus / "snippet.py")]
    assert discover_files([str(corpus / "misnamed.json")]) == []
    assert lint_paths([str(tmp_path)]) == []
