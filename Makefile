# Tier-1 gate: the repo must build and its test suite must pass.
.PHONY: check build test examples conform conform-serial f2-conform \
	algebra-conform tune-smoke tune-scale serve-smoke bench bench-json \
	bench-check perfbench-check size clean

check: build test examples conform f2-conform algebra-conform tune-smoke \
	tune-scale serve-smoke bench-check perfbench-check

build:
	dune build

test:
	dune runtest

# The five examples must run to the end: each exits non-zero on a
# failure (nw_layout when its DP scores differ from the sequential
# reference).  Their output is discarded; errors reach the terminal.
examples:
	dune exec examples/quickstart.exe > /dev/null
	dune exec examples/matmul_codegen.exe > /dev/null
	dune exec examples/nw_layout.exe > /dev/null
	dune exec examples/mlir_transpose.exe > /dev/null
	dune exec examples/layout_explorer.exe > /dev/null

# Differential conformance: interpreter vs symbolic vs C vs MLIR over the
# gallery corpus plus seeded random layouts.  Bounded by a wall-clock
# budget; override the stream with CONFORM_SEED / CONFORM_ITERS and the
# domain count with LEGO_JOBS (the report is bit-identical at any -j).
# The gate runs at -j 2 to exercise the execution layer on every check.
conform:
	dune exec bin/legoc.exe -- conform --budget 30 -j 2

# Same corpus on a single domain — the reference for determinism triage.
conform-serial:
	dune exec bin/legoc.exe -- conform --budget 30 -j 1

# The affine-F2 leg must actually engage: a short run over the gallery
# corpus (which contains the bit-linear family) that fails if no layout
# was cross-checked against its GF(2) matrix form.
f2-conform:
	dune exec bin/legoc.exe -- conform --budget 10 --iters 50 -j 2 --require-f2

# Random layout-algebra terms (compose / complement / divide / product,
# admissible by construction) through all five conformance legs.  The
# stream is power-of-two throughout, so the F2 leg must engage;
# --require-f2 enforces that.
algebra-conform:
	dune exec bin/legoc.exe -- conform --algebra 120 --iters 0 --skip-gallery --budget 20 -j 2 --require-f2

# Autotuner smoke test: a tiny budget on two domains must still
# rediscover the conflict-free XOR swizzle for the matmul staging tile
# (and its winner must pass the four-semantics conformance check).
tune-smoke:
	dune exec bin/legoc.exe -- tune matmul --budget 48 --top 6 -j 2 --expect-conflict-free

# Mega-space smoke: --scale crosses the full product axes (three-level
# tilings x vectorization x the whole masked-swizzle grid, >= 1e5
# distinct candidates on the matmul shape).  The stream must drain
# through the successive-halving funnel under the default scale budget
# (wall-clock well under a minute, ranking memory O(top-K)) and still
# rediscover the conflict-free swizzle at -j 2.  The transpose line is
# the benchmark's tune-scale workload (57,725 candidates).
tune-scale:
	dune exec bin/legoc.exe -- tune matmul --scale -j 2 --expect-conflict-free
	dune exec bin/legoc.exe -- tune transpose --scale -j 2 --expect-conflict-free

# Compile-service smoke test: boots the daemon on a scratch socket and
# db, drives a scripted client through cold misses, an in-batch
# duplicate hit, one tuner run and a warm replay where everything must
# hit the store, then shuts it down cleanly.
serve-smoke:
	dune exec bin/legoc.exe -- serve --oneshot -j 2

bench:
	dune exec bench/main.exe

# Autotune, compile-service and conformance benchmarks with
# machine-readable output, written to $(1)/BENCH_tune.json (candidates/s
# per slot at -j 1 and -j 2, winner timings, the --scale space and
# rate), $(1)/BENCH_serve.json (daemon req/s, cold/warm hit rates, batch
# p50/p99, warm-tune speedup) and $(1)/BENCH_conform.json (points/s at
# -j 1 and -j 2), enforcing each harness's assertions — the warm-tune
# >= 10x floor among them, and conformance's clean, -j-independent
# report.
bench_harnesses = \
	dune exec bench/main.exe -- tune -j 2 --json $(1)/BENCH_tune.json && \
	dune exec bench/main.exe -- serve -j 2 --json $(1)/BENCH_serve.json && \
	dune exec bench/main.exe -- conform -j 2 --json $(1)/BENCH_conform.json

# Refreshes the tracked BENCH_tune.json, BENCH_serve.json and
# BENCH_conform.json.
bench-json:
	$(call bench_harnesses,.)

# The same harnesses and assertions for `make check`, with the JSON
# under _build/ so the check leaves the git tree clean.
bench-check:
	$(call bench_harnesses,_build)

# The benchmark harness's own self-tests (perfbench/): it drives the
# tune and serve APIs end to end, so API changes must keep it building
# and passing.
perfbench-check:
	python3 perfbench/test_perfbench.py

# The two code-size numbers ROADMAP tracks: lines of lib/ .ml/.mli and
# optional parameters declared in lib/*.mli.  Both should go down.
size:
	@echo "lib lines: $$(cat lib/*/*.ml lib/*/*.mli | wc -l)"
	@echo "optional parameters: $$(grep -ho '?[a-z_][a-z0-9_]*:' lib/*/*.mli | wc -l)"

clean:
	dune clean
