"""Tests of ``repro arena info``: the CLI verb and its column-based count of
the causal generating edges."""

import pytest

from repro.arena import adapter, arena_info, format_info
from repro.arena.info import causal_generating_edges
from repro.cli import main
from repro.core.orders import program_order, read_from_order
from test_columnar_equivalence import CASES, build_arena


@pytest.mark.parametrize("seed,processes,variables,chaos", CASES[::6])
def test_edge_count_equals_the_dense_relation(seed, processes, variables, chaos):
    arena = build_arena(seed, processes, variables, chaos)
    cache = {}
    history = adapter.history_from_arena(arena, cache)
    read_from = adapter.read_from_of(arena, cache)
    relation = program_order(history).union(read_from_order(history, read_from))
    assert causal_generating_edges(arena) == relation.edge_count()


def test_cli_prints_the_arena_digest(capsys):
    assert main(["arena", "info", "--workload-param", "operations_per_process=20"]) == 0
    out = capsys.readouterr().out
    assert "operations:" in out and "generating" in out
    assert "reachability" not in out and "blocks" not in out


def test_format_info_renders_every_line():
    stats = arena_info(build_arena(0, 3, 2, 0))
    lines = format_info(stats).splitlines()
    assert lines[-1].split() == ["causal", "edges:", str(stats["causal_generating_edges"]), "generating"]
