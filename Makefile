.PHONY: all build test lint check bench bench-json bench-macro scale-quick clean

all: build

build:
	dune build

test:
	dune runtest

# Static checks over lib/: parsetree rules (determinism / zero-alloc
# hot paths / protection boundaries) plus, over the installed .cmt tree
# loaded once, the interprocedural flow verifier (guest-taint,
# transitive alloc, privilege reachability), the domain-safety detector
# (shared mutable state reachable from LP callbacks) and the
# resource-protocol verifier (acquire/release lifetimes for grants,
# pins, contexts and locks) — all four passes in one invocation with a
# single combined exit code. Also runs as part of `dune runtest`; this target
# additionally refreshes the LINT_stats.json artifact and fails if any
# unsuppressed-violation or suppression count grew versus the committed
# baseline (refresh deliberately by committing the new file).
lint:
	dune build @install
	dune exec lint/main.exe -- --stats LINT_stats.json \
	  --cmt _build/install/default/lib/cdna --gate LINT_stats.json lib

# One-shot CI entry: build, full test suite, static analysis + gate.
check:
	dune build
	dune runtest
	$(MAKE) lint

# Bechamel micro set (core mechanisms). Paper regeneration lives in
# cdna_sim (table / figure / extension / verify); time it end to end
# with perfbench/e2e.exe.
bench:
	dune exec bench/main.exe

# Machine-readable micro results (ns/run + minor words/run), checked
# against the committed regression baseline. Refresh the baseline after
# an intentional performance change with:
#   dune exec bench/main.exe -- --json bench/baseline.json --quota 0.5
bench-json:
	dune exec bench/main.exe -- --json BENCH_micro.json --gate bench/baseline.json

# End-to-end scenario benchmark: wall-clock and events/sec for four
# replica hosts, an oversubscribed CDNA host and a 10^5-flow open-loop
# point, gated >2x against the committed baseline. Refresh after an
# intentional performance change:
#   dune exec bench/main.exe -- --macro bench/baseline_macro.json
# Both gates scale the baseline by the ref/host-speed entry timed in
# the same run, so refresh both files on one machine in one sitting.
bench-macro:
	dune exec bench/main.exe -- --macro BENCH_macro.json --macro-gate bench/baseline_macro.json

# Quick open-loop flow-scaling sweep (quartered windows): the
# 10^3..10^6 table of EXPERIMENTS.md in miniature. Full-window version:
#   dune exec bin/cdna_sim.exe -- scale
scale-quick:
	dune exec bin/cdna_sim.exe -- scale --quick

clean:
	dune clean
