.PHONY: all build test lint check bench bench-json scale-quick clean

all: build

build:
	dune build

test:
	dune runtest

# Static checks over lib/, all four passes over the installed .cmt tree
# loaded once: expression-level rules (determinism / zero-alloc hot
# paths / protection boundaries), the interprocedural flow verifier
# (guest-taint, transitive alloc, privilege reachability), the
# domain-safety detector (shared mutable state reachable from LP
# callbacks) and the resource-protocol verifier (acquire/release
# lifetimes for grants, pins, contexts and locks) — one invocation with
# a single combined exit code. The further --cmt trees are the roots of
# the reach report (the executables of bin/, bench/, perfbench/ and
# examples/, with test/ for the tests that use each entry); `dune build
# @check` writes their .cmt files. Also runs as part of `dune runtest`;
# this target additionally refreshes the LINT_stats.json artifact and
# fails if the unsuppressed-violation count, any single suppression
# count or any reach-report count grew versus the committed baseline
# (refresh deliberately by committing the new file).
lint:
	dune build @install @check
	dune exec lint/main.exe -- --stats LINT_stats.json \
	  --cmt _build/install/default/lib/cdna \
	  --cmt _build/default/bin --cmt _build/default/bench \
	  --cmt _build/default/perfbench --cmt _build/default/examples \
	  --cmt _build/default/test --gate LINT_stats.json

# One-shot CI entry: build, full test suite, static analysis + gate.
check:
	dune build
	dune runtest
	$(MAKE) lint

# Bechamel set: core mechanisms plus four short whole runs. Paper
# regeneration lives in cdna_sim (table / figure / extension / verify);
# time it end to end with perfbench/e2e.exe.
bench:
	dune exec bench/main.exe

# Machine-readable results for every subject (ns/run + minor and direct
# major words/run), gated against the committed baseline: >2x in
# host-scaled time or any rise in allocation fails. Refresh the baseline after an
# intentional performance change with:
#   dune exec bench/main.exe -- --json bench/baseline.json --quota 0.5
bench-json:
	dune exec bench/main.exe -- --json BENCH_micro.json --gate bench/baseline.json

# Quick open-loop flow-scaling sweep (quartered windows): the
# 10^3..10^6 table of EXPERIMENTS.md in miniature. Full-window version:
#   dune exec bin/cdna_sim.exe -- scale
scale-quick:
	dune exec bin/cdna_sim.exe -- scale --quick

clean:
	dune clean
