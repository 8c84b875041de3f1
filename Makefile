# Developer entry points. `make check` is the pre-merge gate: format
# (when ocamlformat is installed), build, full test suite (the CLI's exit
# contract included), the simlint determinism gate, and end-to-end smokes
# of the six single-run subcommands, each of which exits 1 when a check
# fails or a component raises: 10k-tick extractions over the wf box and,
# with a crash, over the ftme box, both with the Lemma checks, the first
# also checking that its run report is written and parses and rendering
# the JSONL trace it streams (notes, suspicions and trusts as well as
# phase changes) with `dinersim trace`; then a dining run with a crash,
# and a run whose --crash names no process, which must be rejected with
# exit status 2; then the demos that drive dining handles from outside
# the dining layer (vulnerability in both modes, wsn, ctm, agreement),
# each writing a report that must parse, where the flawed vulnerability
# run is the negative control and must exit 1, as must ctm without its
# contention manager (--no-cm), whose aborts outnumber its commits; then
# `certify` of the wf box, whose report must parse, and of the hygienic
# box (the negative control), which must exit 1. fuzz-smoke fuzzes the
# dining algorithms, then the reduction (the extract-* targets), and fails
# when the reduction's campaign report is more than twice the size of the
# dining one.

.PHONY: all build test fmt lint check smoke fuzz-smoke mc-smoke \
	bench-smoke bench-scale bench-diff trace-smoke replay-smoke clean

# Worker count for the parallel targets below. Results are byte-identical
# for any J (see DESIGN.md, "Parallel execution & determinism contract"),
# so this only affects wall-clock.
J ?= 2

# Relative-slowdown gate for bench-diff: an experiment regresses when its
# fresh median exceeds THRESHOLD x the committed median. CI passes a more
# generous value (shared runners are noisy); see .github/workflows/ci.yml.
BENCH_THRESHOLD ?= 1.5

all: build

build:
	dune build

test:
	dune runtest

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
		dune build @fmt --auto-promote; \
	else \
		echo "ocamlformat not installed; skipping format check"; \
	fi

# Determinism & simulation-hygiene gate (rules D001-D010, D012-D014 and
# D018; see DESIGN.md).
# Exits 1 on any finding not suppressed by an in-source
# `(* simlint: allow Dxxx — reason *)` comment, 2 on a usage or I/O
# error. Also writes the SARIF 2.1.0 form for CI code-scanning upload.
# Optionally restrict to a rule subset: make lint RULES=D014,D018
lint: build
	dune exec tools/simlint/main.exe -- --root . --sarif _build/simlint.sarif $(if $(RULES),--only $(RULES))

smoke: build
	dune exec bin/dinersim.exe -- extract --horizon 10000 --lemmas --report /tmp/dinersim-smoke.json \
		--trace-out /tmp/dinersim-smoke.jsonl
	dune exec bin/dinersim.exe -- report /tmp/dinersim-smoke.json
	dune exec bin/dinersim.exe -- trace /tmp/dinersim-smoke.jsonl \
		-o /tmp/dinersim-smoke.perfetto.json
	dune exec bin/dinersim.exe -- extract --box ftme -n 3 --crash 2@5000 --horizon 10000 --lemmas
	dune exec bin/dinersim.exe -- dining --algo kfair --topology ring:6 --crash 4@2000 --horizon 6000
	dune exec bin/dinersim.exe -- dining --topology pair --crash 9@100; test $$? -eq 2
	dune exec bin/dinersim.exe -- vulnerability --mode flawed \
		--report /tmp/dinersim-smoke-vulnerability-flawed.json > /dev/null; test $$? -eq 1
	dune exec bin/dinersim.exe -- report /tmp/dinersim-smoke-vulnerability-flawed.json
	dune exec bin/dinersim.exe -- vulnerability --mode ours \
		--report /tmp/dinersim-smoke-vulnerability-ours.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-smoke-vulnerability-ours.json
	dune exec bin/dinersim.exe -- wsn --report /tmp/dinersim-smoke-wsn.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-smoke-wsn.json
	dune exec bin/dinersim.exe -- ctm --report /tmp/dinersim-smoke-ctm.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-smoke-ctm.json
	dune exec bin/dinersim.exe -- ctm --no-cm > /dev/null; test $$? -eq 1
	dune exec bin/dinersim.exe -- agreement --report /tmp/dinersim-smoke-agreement.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-smoke-agreement.json
	dune exec bin/dinersim.exe -- certify --box wf --report /tmp/dinersim-smoke-certify.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-smoke-certify.json
	dune exec bin/dinersim.exe -- certify --box none > /dev/null; test $$? -eq 1

# Bounded schedule-fuzzing campaigns (fixed root seed, so the exact same
# configs every time; -j only changes wall-clock, never the report body):
# 200 runs over the real dining algorithms, then 200 of the reduction over
# the wf, kfair and ftme boxes, judged by Theorems 1-2, trusting accuracy
# for ftme, and the Lemma 1-12 checks (about 2.6 s at -j 1). Exits non-zero
# if any run violates a check, or if the reduction's report is more than
# twice the size of the dining one: Obs.Instrument keys metrics by instance
# family, so the reduction's 2n(n-1) dining instances must not grow its
# report. Both dinersim-campaign/1 reports, coverage blocks included, are
# uploaded as CI artifacts.
fuzz-smoke: build
	dune exec bin/dinersim.exe -- fuzz --runs 200 --seed 0xF5EED --max-horizon 6000 \
		-j $(J) --report /tmp/dinersim-fuzz-smoke.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-fuzz-smoke.json
	dune exec bin/dinersim.exe -- fuzz --algos extract-wf,extract-kfair,extract-ftme \
		--runs 200 --seed 0xF5EED --max-horizon 6000 -j $(J) \
		--report /tmp/dinersim-fuzz-smoke-extract.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-fuzz-smoke-extract.json
	@d=$$(wc -c < /tmp/dinersim-fuzz-smoke.json); \
	e=$$(wc -c < /tmp/dinersim-fuzz-smoke-extract.json); \
	echo "fuzz-smoke reports: dining $$d bytes, reduction $$e bytes"; \
	test $$e -le $$((2 * $$d)) || \
		{ echo "fuzz-smoke: the reduction's report is over twice the dining one's"; exit 1; }

# Bounded exhaustive model check of a known-good instance, the one
# perfbench's mc workload times: every one of the 59,049 schedules a
# dls(delta=3,phi=1) adversary can produce for wf on a pair within 14
# ticks, all dining monitors green (under a second at -j 1). Exits
# non-zero on any violation; the dinersim-mc/1 report is re-parsed as a
# round-trip check (and uploaded as a CI artifact).
mc-smoke: build
	dune exec bin/dinersim.exe -- check --algo wf --topology pair --horizon 14 \
		--delta 3 --phi 1 --eat-ticks 1 --seed 0x5EED -j $(J) \
		--out /tmp/dinersim-mc-repro --report /tmp/dinersim-mc-smoke.json
	dune exec bin/dinersim.exe -- report /tmp/dinersim-mc-smoke.json

# Refresh the committed benchmark snapshot. Medians over --trials runs,
# timed one after another so no trial shares the cores with another.
bench-smoke: build
	dune exec bench/main.exe -- --trials 3

# Engine scaling curve, n = 10^2..10^5 (ring of hygienic diners, fixed
# total proc-tick budget — see DESIGN.md "Engine at scale"). Written to
# its own file so a partial-suite run never clobbers the committed
# full-suite snapshot that bench-diff compares against; the scale keys
# also live in the full suite, so regressions are gated there.
bench-scale: build
	dune exec bench/main.exe -- scale2 scale3 scale4 scale5 \
		--trials 3 --out _build/bench-scale.json

# Perf-regression gate: run the suite as bench-smoke does, into
# _build/bench-fresh.json so the committed snapshot stays untouched, and
# diff the committed medians against the fresh ones. Exits non-zero when
# any experiment slowed down by more than BENCH_THRESHOLD x, or dropped
# out of the suite. The machine diff lands in _build/benchdiff.json; both
# files are uploaded as CI artifacts.
bench-diff: build
	dune exec bench/main.exe -- --trials 3 --out _build/bench-fresh.json
	dune exec tools/benchdiff/main.exe -- BENCH_dining.json _build/bench-fresh.json \
		--threshold $(BENCH_THRESHOLD) --json _build/benchdiff.json

# End-to-end smoke of the Perfetto exporter: render a corpus repro
# artifact and a freshly streamed JSONL trace, each to its own file. Then
# render the artifact again from outside the tree with the default output
# path, which must land in the current directory: the step fails if any
# file, ignored ones included, appears under test/.
trace-smoke: build
	dune exec bin/dinersim.exe -- trace test/corpus/family-sync.json \
		-o /tmp/dinersim-trace-smoke.perfetto.json
	dune exec bin/dinersim.exe -- dining --seed 41 --horizon 3000 \
		--trace-out /tmp/dinersim-trace-smoke.jsonl > /dev/null
	dune exec bin/dinersim.exe -- trace /tmp/dinersim-trace-smoke.jsonl \
		-o /tmp/dinersim-trace-smoke-jsonl.perfetto.json
	dir=$$(mktemp -d) && find test | sort > $$dir/before && \
	cd $$dir && $(CURDIR)/_build/default/bin/dinersim.exe trace \
		$(CURDIR)/test/corpus/family-sync.json && \
	test -s family-sync.perfetto.json && cd $(CURDIR) && \
	find test | sort | diff $$dir/before - && rm -r $$dir

# Replay the checked-in family artifacts and the reduction's
# extract-hygienic counterexample through the CLI: every recorded verdict
# must match. The broken-variant counterexample beside them names a
# test-only algorithm, so `dune runtest` replays it.
replay-smoke: build
	dune exec bin/dinersim.exe -- replay test/corpus/family-*.json \
		test/corpus/extract-hygienic.json

check: fmt build test lint smoke fuzz-smoke mc-smoke trace-smoke replay-smoke
	@echo "check: OK"

clean:
	dune clean
