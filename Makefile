# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint lint-update check-crash check-crash-budget check-spec check-psan check-obs check-shard check-group check-page check-flight ci bench bench-json experiments examples clean

all: build

build:
	dune build @all

test:
	dune runtest

# Static analysis (tinca-lint, DESIGN.md §9): pmem encapsulation, fence
# discipline, domain-readiness inventory, error discipline, .mli
# coverage.  Fails on any finding not in lint.baseline (and on stale
# baseline entries); every baseline entry carries a justification.
lint:
	dune exec bin/tinca_lint.exe -- --root . --baseline lint.baseline

# Rewrite lint.baseline from the current findings, preserving existing
# justifications; new entries get a TODO placeholder you must fill in.
lint-update:
	dune exec bin/tinca_lint.exe -- --root . --baseline lint.baseline --update

# Every check-* target is one gate of the gate table (lib/harness/gates.ml):
# its properties run in order, one verdict table is printed per gate, and
# the exit status is 1 if any property failed.  `tinca_check gate list`
# names them; `tinca_check --help` has the ad-hoc sweep flags.

# Exhaustive crash-space model check of the commit protocol: every pmem
# event of the default 6-commit workload is a crash point; at each one,
# every survival subset of the torn cache lines is recovered and audited.
check-crash:
	dune exec bin/tinca_check.exe -- gate crash

# The budgeted sweep that gates ci: a 3-commit workload with a 64-subset
# cap (any cap shortfall is reported as capped points, never silent).
check-crash-budget:
	dune exec bin/tinca_check.exe -- gate crash-budget

# Executable-spec refinement: the pure journal spec and a real Tinca in
# lockstep at 1, 2 and 4 shards, every crash-recovered state judged by
# spec refinement, and planted commit-path mutations that must be caught
# with small shrunk reproducers.
check-spec:
	dune exec bin/tinca_check.exe -- gate spec

# Persistence sanitizer over the Tinca (incl. crash + recovery), Classic
# (JBD2 + Flashcache) and raw-Flashcache stacks.
check-psan:
	dune exec bin/tinca_check.exe -- gate psan

# Span-trace export validated as Chrome trace_event JSON, per-span fence
# attribution pinned to the persistence budget, disabled-mode overhead
# bounded at 2% of commit wall time.
check-obs:
	dune exec bin/tinca_check.exe -- gate obs

# A budgeted 4-shard crash sweep and sanitizer pass, the N=1 equivalence
# pin against BENCH_commit.json and the scaling sanity check.
check-shard:
	dune exec bin/tinca_check.exe -- gate shard

# The sanitizer with a batch-scoped group-commit phase, the window=0
# equivalence pin, sfences/commit < 1 at >= 8 streams and p99
# ack-to-durable latency within the window.
check-group:
	dune exec bin/tinca_check.exe -- gate group

# The paging scheme: fence budget flat in transaction size, budgeted
# crash sweeps, lockstep refinement and psan.
check-page:
	dune exec bin/tinca_check.exe -- gate page

# The flight recorder: zero added fences, <= 2% commit overhead, psan,
# crash sweeps with the replay on/off pin and dossier agreement, and the
# planted Drop_durable_notify convicted by the dossier alone.
check-flight:
	dune exec bin/tinca_check.exe -- gate flight

# Everything a gate should run: build, unit tests, the lint, the
# commit-protocol benchmark artifact (check-shard pins against it), then
# every gate in one run that does not stop at the first failing gate and
# ends with a per-gate wall-time summary.
ci: build test lint bench-json
	dune exec bin/tinca_check.exe -- gate all

# Full paper reproduction + Bechamel micro-benchmarks.
bench:
	dune exec bench/main.exe

# Machine-readable commit-protocol benchmark (sfences, flush write-backs
# and simulated ns per commit across pipeline x flush instruction x txn
# size, plus trace-replay throughput per stack).
bench-json:
	dune exec bin/tinca_bench.exe -- bench-json --out BENCH_commit.json

# Just the paper's tables and figures (see `tinca_bench list`).
experiments:
	dune exec bin/tinca_bench.exe -- run all

examples:
	dune exec examples/quickstart.exe
	dune exec examples/protocol_walkthrough.exe
	dune exec examples/kvstore.exe
	dune exec examples/crash_torture.exe
	dune exec examples/cluster_demo.exe
	dune exec examples/fileserver_compare.exe

clean:
	dune clean
