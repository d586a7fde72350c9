"""Self-hosting and CLI-surface tests for `repro lint`.

The analyzer must hold its own codebase to the contract it enforces: the
shipped tree lints clean, and the documented escape hatches (ALLOWLIST,
``# repro: noqa[...]``) are the only sanctioned suppressions.
"""

import fnmatch
import os
import subprocess
import sys

from repro.lint import ALLOWLIST, all_rules, lint_paths

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SRC = os.path.join(REPO_ROOT, "src")


def _run_cli(*args, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


def test_selfhost_src_is_clean():
    """The ISSUE's acceptance bar: `repro lint src/` exits 0 on the tree."""
    result = _run_cli("lint", "src")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "repro lint: clean" in result.stdout


def test_selfhost_tests_are_clean():
    result = _run_cli("lint", "tests")
    assert result.returncode == 0, result.stdout + result.stderr


def test_selfhost_api_is_clean():
    diagnostics = lint_paths([SRC, os.path.join(REPO_ROOT, "tests")])
    assert diagnostics == [], [d.render() for d in diagnostics]


def test_cli_exits_nonzero_on_findings(tmp_path):
    bad = tmp_path / "src" / "repro" / "netsim" / "snippet.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random\nvalue = random.random()\n")
    result = _run_cli("lint", str(tmp_path))
    assert result.returncode == 1
    assert "RPR101" in result.stdout
    assert "finding(s)" in result.stdout


def test_cli_select_filters_codes(tmp_path):
    bad = tmp_path / "src" / "repro" / "netsim" / "snippet.py"
    bad.parent.mkdir(parents=True)
    bad.write_text("import random, time\nvalue = random.random() + time.time()\n")
    result = _run_cli("lint", "--select", "RPR103", str(tmp_path))
    assert result.returncode == 1
    assert "RPR103" in result.stdout
    assert "RPR101" not in result.stdout


def test_cli_list_rules_names_every_code():
    result = _run_cli("lint", "--list-rules")
    assert result.returncode == 0
    for rule in all_rules():
        assert rule.code in result.stdout


#: The rule menu, in family order.  A rule that drops out of ``all_rules``
#: (or a family added without a decision here) fails this, not silently.
RULE_MENU = [
    "RPR101", "RPR102", "RPR103", "RPR104", "RPR105",
    "RPR201", "RPR202", "RPR203", "RPR204",
    "RPR401", "RPR402",
    "RPR501",
]


def test_cli_list_rules_prints_exactly_the_menu():
    result = _run_cli("lint", "--list-rules")
    assert result.returncode == 0
    codes = [line.split()[0] for line in result.stdout.splitlines() if line.strip()]
    assert codes == RULE_MENU


def test_rule_codes_are_unique_and_well_formed():
    codes = [rule.code for rule in all_rules()]
    assert len(codes) == len(set(codes))
    for code in codes:
        assert code.startswith("RPR") and code[3:].isdigit(), code


def test_allowlist_entries_still_match_real_files():
    """A stale allowlist entry is a silent hole — every entry must still
    point at an existing file, and that file must still need it."""
    for pattern, code, reason in ALLOWLIST:
        absolute = os.path.join(REPO_ROOT, pattern)
        matches = [absolute] if os.path.exists(absolute) else [
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(SRC)
            for name in names
            if fnmatch.fnmatch(
                os.path.relpath(os.path.join(dirpath, name), REPO_ROOT), pattern
            )
        ]
        assert matches, f"allowlist entry {pattern!r} matches no file"
        assert reason.strip(), f"allowlist entry {pattern!r} has no reason"
        # the entry must still be doing work: linting the matched files with
        # the allowlist bypassed must surface exactly that code
        from repro.lint.engine import load_context, run_lint

        diagnostics = run_lint(
            [load_context(m) for m in matches], apply_allowlist=False
        )
        assert any(d.code == code for d in diagnostics), (
            f"allowlist entry {pattern!r}/{code} no longer fires — remove it"
        )


def test_seeded_regression_trips_the_gate(tmp_path):
    """The ISSUE's mutation check, in-process: re-introducing an unseeded
    random call into netsim/ must flip the lint verdict to failing."""
    import shutil

    staged = tmp_path / "src" / "repro" / "netsim"
    staged.mkdir(parents=True)
    real_netsim = os.path.join(SRC, "repro", "netsim")
    for name in os.listdir(real_netsim):
        if name.endswith(".py"):
            shutil.copyfile(os.path.join(real_netsim, name), staged / name)
    assert lint_paths([str(tmp_path)]) == []

    with open(staged / "loss.py", "a") as handle:
        handle.write("\nimport random\n_jitter = random.random()\n")
    diagnostics = lint_paths([str(tmp_path)])
    assert any(d.code == "RPR101" for d in diagnostics)


def test_seeded_metadata_regression_trips_the_gate(tmp_path):
    """Deleting a declared capability (order_tolerant) from a protocol
    registration must flip the lint verdict to failing."""
    staged = tmp_path / "src" / "repro" / "mcs" / "best_effort.py"
    staged.parent.mkdir(parents=True)
    source = open(os.path.join(SRC, "repro", "mcs", "best_effort.py")).read()
    assert "order_tolerant" in source
    mutated = "\n".join(
        line for line in source.splitlines() if "order_tolerant" not in line
    )
    staged.write_text(mutated + "\n")
    diagnostics = lint_paths([str(tmp_path)])
    assert any(d.code == "RPR201" for d in diagnostics)
