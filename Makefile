# Development entry points. Every target runs against src/ in place
# (no install needed); see README.md for the pip install route.

PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test lint reproduce bench bench-compare bench-pairs profile experiments experiments-smoke faults apps hunt-smoke serve-smoke place-smoke clean-cache

# Tier-1 verification (the command ROADMAP.md records).
test:
	$(PYTHON) -m pytest -x -q

# One static-analysis gate, run ahead of the tests in CI: the repo's own
# determinism & plugin-contract analyzer (src/repro/lint/: seeded-RNG and
# wall-clock discipline, registry capability metadata, *Spec round-trip
# symmetry, multiprocessing picklability, typed exceptions, hunted-corpus
# schema; see docs/API.md "Static analysis" for the rule codes), plus ruff
# and mypy when installed — both are pinned in the dev extra and present in
# CI; in a bare environment they are reported as SKIPPED so the custom
# rules still gate.
lint:
	$(PYTHON) -m repro lint --third-party

# Paper gate: evaluate the ledger of paper claims (src/repro/analysis/figures.py)
# stage by stage — definitions, theorems, Section 3.3, Section 6 — and print
# every claim with its measured value and its expected value or bound; exit 1
# on any FAIL (about 3 s).
reproduce:
	$(PYTHON) -m repro reproduce

# The one benchmark gate: the layered end-to-end harness (benchmarks/e2e/,
# declared by BENCHMARK.json).  Runs the six workloads untraced then traced,
# prints the per-layer table, writes the result JSON and exits 1 unless every
# exact counter matches benchmarks/e2e/expected.json (about 3.5 min).
bench:
	$(PYTHON) benchmarks/e2e/run.py --out benchmarks/e2e/out/result.json

# Gate one result against another with BENCHMARK.json's bounds (timing is
# only ever judged parent-vs-change):  make bench-compare OLD=a.json NEW=b.json
bench-compare:
	$(PYTHON) benchmarks/e2e/run.py --compare $(OLD) $(NEW)

# The evidence a claimed gain needs (choosing-metrics §8): N alternating
# parent/change pairs of one workload, BASE extracted into a temporary
# directory; prints each side's median and quartiles, the win count and
# whether the gain holds (about 35 s per pair):
#   make bench-pairs W=place_40p BASE=HEAD~1
bench-pairs:
	$(PYTHON) benchmarks/pairs.py --workload $(W) --base $(BASE) --pairs $(or $(N),10)

# The profile that motivates an optimisation (ROADMAP: none lands without
# one): cProfile of three full-size timed sections of one benchmark workload
# (imports, warm-up and set-up run unprofiled), top 30 rows by own time, then
# top 30 by cumulative time; then one more timed section under tracemalloc:
# peak and retained MiB above the inputs and the top 10 allocating lines.
#   make profile W=partial_causal
profile:
	$(PYTHON) benchmarks/timed_profile.py --workload $(W)

# Application gate: run the spec-driven apps suite (the four registered
# applications over reliable and faulty networks) with expected-result
# gating — routes/solutions must keep validating against the centralised
# reference ground truth, and the partitioned-barrier scenario must keep
# being *diagnosed* as a livelock (exit 1 on any expectation mismatch).
apps:
	$(PYTHON) -m repro experiments run --suite apps --no-cache

# One-scenario end-to-end check of the experiment orchestrator.
experiments-smoke:
	$(PYTHON) -m repro experiments run --scenario figure2-hoop --no-cache

# The full scenario suite (paper + stress + faults), fanned out and cached.
experiments:
	$(PYTHON) -m repro experiments run --suite all --workers 4

# Fault-injection gate: every faults-suite verdict must match its
# expectation — the hardened protocols stay consistent under loss/partition/
# crash/duplication, and the scripted violation scenarios must keep being
# *proven* inconsistent by the incremental checkers (exit 1 otherwise).
faults:
	$(PYTHON) -m repro experiments run --suite faults --no-cache

# Hunt gate: replay every committed minimal reproducer of the 'hunted'
# suite through the hunt oracle (each must keep producing its recorded
# verdict — exit 1 on any regression) and run a small fixed-seed,
# time-bounded hunt as an end-to-end check of the search pipeline.
hunt-smoke:
	$(PYTHON) -m repro hunt smoke --budget 25 --seed 0
	$(PYTHON) -m repro experiments run --suite hunted --no-cache

# Place smoke: a fast end-to-end pass of the placement optimizer — exact
# search on a paper-sized profile, report JSON round-trip, and one measured
# run of the optimized placement through a sharded protocol (exit 1 on any
# inconsistency; the scale-100 comparison is the ledger claim
# section33-headline-100p of `make reproduce`).
place-smoke:
	$(PYTHON) -m repro place optimize --processes 8 --variables 6 \
		--accessors 2 --profile-seed 2 --measure sequencer_shard \
		--out .repro-place-smoke.json
	$(PYTHON) -m repro place report .repro-place-smoke.json
	rm -f .repro-place-smoke.json

# Serve gate: export one violating and one clean scenario as repro-trace-v1
# streams, run both through the online monitoring service as concurrent
# tenants, and require the windowed monitors to prove the violation exactly
# while leaving the clean tenant undisturbed (exit 1 on any mismatch).
serve-smoke:
	$(PYTHON) -m repro serve smoke

clean-cache:
	rm -rf .repro-cache
