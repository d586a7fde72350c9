"""The paper-claims ledger: every claim passes, and a failure is reported honestly."""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis import figures
from repro.analysis.figures import (
    STAGES,
    all_reproductions,
    claims,
    claims_markdown,
    reproduction_table,
)

EXPERIMENTS_MD = Path(__file__).resolve().parent.parent.parent / "EXPERIMENTS.md"


@pytest.fixture(scope="module")
def results():
    return {r.claim.id: r for r in all_reproductions()}


class TestLedger:
    def test_every_claim_passes(self, results):
        assert [r.claim.id for r in results.values() if r.status != "pass"] == []

    def test_shape(self, results):
        ledger = claims()
        assert len(ledger) >= 20 and len({c.id for c in ledger}) == len(ledger)
        assert [c.stage for c in ledger] == sorted((c.stage for c in ledger),
                                                   key=STAGES.index)
        assert {c.stage for c in ledger} == set(STAGES)
        row = results["figure1-share-graph"].as_row()
        assert list(row) == ["stage", "id", "section", "claim", "measured",
                             "expected", "status"]

    def test_structural_figures(self, results):
        assert results["figure1-share-graph"].measured["C(x1)"] == (1, 2)
        assert results["figure1-share-graph"].measured["C(x2)"] == (1, 3)
        assert results["figure2-hoop"].measured["intermediates outside C(x)"]
        assert results["figure3-dependency-chain"].measured["external processes"] == (1, 2, 3)

    def test_example_histories(self, results):
        assert results["figure4-history"].measured == {"causal": False, "lazy_causal": True}
        assert results["figure5-history"].measured["lazy_causal"] is False
        assert 2 in results["figure5-history"].measured["x-chain through"]
        figure6 = results["figure6-history"]
        assert figure6.measured["lazy_semi_causal (strict)"] is False
        # the definitional subtlety is documented where the claim is stated
        assert "Definition 5" in figure6.claim.statement

    def test_theorems(self, results):
        assert results["theorem1-paper-distributions"].measured["witnessed"]
        theorem2 = results["theorem2-no-hoop-chains"].measured
        assert theorem2["external chains"] == 0 < theorem2["internal chains"]

    def test_bellman_ford(self, results):
        routes = results["section6-figure8-routes"].measured
        assert routes["matches centralised Bellman-Ford"] and routes["history is PRAM"]
        assert routes["irrelevant"] == 0 and dict(routes["distances"])[5] == 4.0
        trace = results["section6-figure9-trace"].measured
        assert trace["rounds"] == 5 and trace["estimates"] == 25  # 5 nodes x 5 rounds
        assert trace["never increase"] and trace["final = reference"]

    def test_headline_is_compared_exactly(self, results):
        headline = results["section33-headline-100p"]
        assert headline.claim.expected.text.startswith("= ")
        assert headline.measured["control B/msg"] == (68.63, 1618.83)
        row = headline.as_row()
        assert "68.63" in row["measured"] and "1618.83" in row["measured"]
        off_by_a_cent = dict(headline.measured, **{"control B/msg": (68.64, 1618.83)})
        assert not headline.claim.expected.holds(off_by_a_cent)

    def test_table_renders_every_column(self, results):
        table = reproduction_table(list(results.values()))
        assert "Paper claims ledger" in table
        for column in ("stage", "section", "claim", "measured", "expected", "status"):
            assert column in table.splitlines()[1]

    def test_cli_prints_the_ledger_and_exits_zero(self, results, monkeypatch, capsys):
        """The verb over the results evaluated above; `make reproduce` runs it whole."""
        from repro.cli import main

        monkeypatch.setattr(figures, "all_reproductions", lambda: list(results.values()))
        assert main(["reproduce"]) == 0
        out = capsys.readouterr().out
        assert f"All {len(results)} claims pass" in out
        rows = [line for line in out.splitlines() if line.split()[-1:] == ["pass"]]
        assert len(rows) >= 20 and "FAIL" not in out and "skipped" not in out
        (headline,) = [row for row in rows if "section33-headline-100p" in row]
        assert "68.63" in headline and "1618.83" in headline

    def test_a_raising_measure_is_that_claims_failure(self, monkeypatch):
        def broken():
            raise IndexError("no dependency chain found")

        ledger = [replace(c, measure=broken) if c.id == "figure3-dependency-chain" else c
                  for c in claims()]
        monkeypatch.setattr(figures, "claims", lambda: ledger)
        evaluated = all_reproductions()
        assert len(evaluated) == len(ledger)
        (failed,) = [r for r in evaluated if r.status == "FAIL"]
        assert failed.claim.id == "figure3-dependency-chain"
        assert "no dependency chain found" in failed.as_row()["measured"]
        for r in evaluated:
            if r is not failed:
                assert r.status == ("pass" if r.claim.stage == "definitions" else "skipped")

    def test_experiments_md_carries_the_evaluated_ledger(self, results):
        """The claims table of EXPERIMENTS.md is computed, not stored."""
        text = EXPERIMENTS_MD.read_text(encoding="utf-8")
        committed = text.split("<!-- claims:begin -->")[1].split("<!-- claims:end -->")[0]
        generated = claims_markdown(list(results.values()))
        assert committed.strip() == generated, (
            "the claims block of EXPERIMENTS.md is stale; replace the lines "
            f"between its claims:begin / claims:end markers with:\n\n{generated}\n")
