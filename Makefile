.PHONY: all build test check smoke check-smoke analyze-smoke fuzz-smoke \
	matrix-smoke trace-smoke jit-smoke perf-smoke serve-smoke \
	serve-scale-smoke serve-bench cross-cache-smoke bench-compare \
	perfbench-smoke regen-golden bench clean

all: build

build:
	dune build @all

test:
	dune runtest

# the tier-1 gate: everything compiles, the full suite is green, a
# short parallel fuzz campaign finds nothing, and the observability
# layer round-trips (valid Chrome JSON, golden trace matches)
check:
	dune build @all && dune runtest && $(MAKE) fuzz-smoke && $(MAKE) matrix-smoke \
	&& $(MAKE) check-smoke && $(MAKE) analyze-smoke \
	&& $(MAKE) trace-smoke && $(MAKE) jit-smoke && $(MAKE) perf-smoke \
	&& $(MAKE) serve-smoke && $(MAKE) serve-scale-smoke \
	&& $(MAKE) bench-compare BASE=BENCH_fig7.json NEW=BENCH_fig7.json \
	&& $(MAKE) bench-compare BASE=BENCH_serve.json NEW=BENCH_serve.json \
	&& $(MAKE) perfbench-smoke

# compile the example kernels plus 50 fixed-seed generated kernels
# under every configuration with the per-pass static verifier on; any
# checker diagnostic fails the run
check-smoke: build
	dune exec bin/fuzz.exe -- --check-smoke examples/kernels -j 4

# the ineffectuality lint gate: run the Psi-SSA analysis in lint mode
# (report, don't delete) over the example kernels plus 50 fixed-seed
# generated kernels; every finding is cross-validated against the
# exhaustive path enumerator, so one false positive fails the run
analyze-smoke: build
	dune exec bin/fuzz.exe -- --analyze-smoke examples/kernels -j 4

# seconds-long differential-fuzzing sanity run (small programs, every
# config, both simulators, block validator, parallel path)
fuzz-smoke: build
	dune exec bin/fuzz.exe -- --seed 1 -n 40 -j 4 --min-size 4 --max-size 12 --no-minimize

# the backend-differential gate: the same oracle with the machine
# matrix on, so every kernel x config pair must reproduce the reference
# results on the tiled grid AND the in-order EDGE core
matrix-smoke: build
	dune exec bin/fuzz.exe -- --matrix --seed 7000 -n 40 -j 4 --min-size 4 --max-size 14 --no-minimize

# seconds-long end-to-end check of the tracing/metrics layer: run one
# golden kernel traced, validate the Chrome JSON export, compare the
# text trace against its blessed golden
trace-smoke: build
	dune exec test/trace_smoke.exe

# diff two BENCH_fig7.json files: fails on any per-benchmark cycle
# drift, reports the wall-clock delta
#   make bench-compare BASE=old.json NEW=new.json
BASE ?= BENCH_fig7.json
NEW ?= BENCH_fig7.json
bench-compare: build
	dune exec bin/bench_compare.exe -- $(BASE) $(NEW)

# run every example kernel through tsim twice -- threaded-code JIT
# (default) and reference interpreter (--no-jit) -- and require
# byte-identical output, text trace included; then re-run the golden
# trace check with the JIT explicitly forced on
jit-smoke: build
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	for k in examples/kernels/*.k; do \
	  n=$$(basename $$k .k) && \
	  ./_build/default/bin/tsim.exe "$$k" -c both \
	    --trace-text "$$dir/$$n.jit.trace" \
	    | grep -v '^wrote ' > "$$dir/$$n.jit.out" || \
	    { echo "jit-smoke: FAIL: $$n (jit run)"; exit 1; }; \
	  ./_build/default/bin/tsim.exe "$$k" -c both --no-jit \
	    --trace-text "$$dir/$$n.int.trace" \
	    | grep -v '^wrote ' > "$$dir/$$n.int.out" || \
	    { echo "jit-smoke: FAIL: $$n (interpreter run)"; exit 1; }; \
	  diff "$$dir/$$n.jit.out" "$$dir/$$n.int.out" || \
	    { echo "jit-smoke: FAIL: $$n output differs jit vs interpreter"; exit 1; }; \
	  diff "$$dir/$$n.jit.trace" "$$dir/$$n.int.trace" || \
	    { echo "jit-smoke: FAIL: $$n trace differs jit vs interpreter"; exit 1; }; \
	done && \
	DFP_NO_JIT= dune exec test/trace_smoke.exe && \
	echo "jit-smoke: OK (examples + golden traces byte-identical)"

# run the smoke sweep twice against a fresh temporary cache directory:
# the warm run must hit the cache for every experiment, report at least
# a 2x wall-time improvement, and print identical cycle counts
perf-smoke: build
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	cold=$$(./_build/default/bench/main.exe smoke --cache-dir "$$dir") && \
	warm=$$(./_build/default/bench/main.exe smoke --cache-dir "$$dir") && \
	cc=$$(printf '%s\n' "$$cold" | grep '^cycles ') && \
	wc=$$(printf '%s\n' "$$warm" | grep '^cycles ') && \
	if [ "$$cc" != "$$wc" ]; then \
	  echo "perf-smoke: FAIL: warm-cache cycles differ"; \
	  printf 'cold:\n%s\nwarm:\n%s\n' "$$cc" "$$wc"; exit 1; fi && \
	printf '%s\n' "$$warm" | grep -q '^cache: 2 hits, 0 misses' || \
	  { echo "perf-smoke: FAIL: warm run missed the cache"; \
	    printf '%s\n' "$$warm" | grep '^cache:'; exit 1; } && \
	ct=$$(printf '%s\n' "$$cold" | sed -n 's/^smoke: \([0-9.]*\)s wall.*/\1/p') && \
	wt=$$(printf '%s\n' "$$warm" | sed -n 's/^smoke: \([0-9.]*\)s wall.*/\1/p') && \
	awk -v c="$$ct" -v w="$$wt" 'BEGIN { exit !(2 * w <= c) }' || \
	  { echo "perf-smoke: FAIL: warm run not 2x faster ($$ct s -> $$wt s)"; exit 1; } && \
	echo "perf-smoke: OK (cold $$ct s, warm $$wt s, cycles identical)" && \
	./_build/default/bin/fsim_bench.exe --smoke --min-ratio 2

# spawn dfpd.exe, drive ~20 mixed jobs through the socket (cold + warm
# workload jobs, a source job, a traced job, a guaranteed timeout, a
# malformed request, bad names), then shut down cleanly: structured
# errors only, warm >= 10x cold, no leaked sockets or temp files
serve-smoke: build
	./_build/default/bin/serve_bench.exe --smoke

# the scaling gate: pipelined batch framing at -j4 must clear at least
# 2x the lock-step -j1 warm throughput, and cold throughput must not
# regress from idle-worker overhead (tolerance for host noise)
serve-scale-smoke: build
	./_build/default/bin/serve_bench.exe --scale-smoke

# the serve throughput benchmark; writes BENCH_serve.json (compare
# against a baseline with `make bench-compare BASE=... NEW=...` --
# latency/ratio drift is informational; the byte-identical flags and
# >20% warm-throughput regressions gate)
serve-bench: build
	./_build/default/bin/serve_bench.exe --out BENCH_serve.json

# seconds-long sizes of every repository-benchmark workload (see
# perfbench/NOTES.md): builds perfbench/bench.exe from this checkout,
# so it is the gate on the library names the benchmark links, and
# checks every metric BENCHMARK.json names is printed with its unit
perfbench-smoke:
	python3 perfbench/run.py --self-test

# two dfpd processes sharing one --cache-dir: the second must warm-hit
# the first's results with zero decode errors and no torn reads
cross-cache-smoke: build
	./_build/default/bin/serve_bench.exe --cross-cache

# re-bless the golden trace files after an intentional schedule change;
# inspect the diff before committing
regen-golden: build
	dune exec test/regen_golden.exe

# seconds-long sanity run of the parallel sweep path (1 workload,
# 2 configs, 2 domains)
smoke: build
	dune exec bench/main.exe -- smoke

# the full evaluation; writes BENCH_fig7.json
bench: build
	dune exec bench/main.exe

clean:
	dune clean
