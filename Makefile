# Convenience targets; the source of truth is dune.

.PHONY: ci build test bench-perf bench-fuzz bench-shrink shrink-smoke \
  fuzz-parallel-smoke cache-smoke clean

ci: build test shrink-smoke fuzz-parallel-smoke cache-smoke

build:
	dune build @all

test:
	dune runtest

# Minimizer smoke test: shrink one known catalogued bug to a reproducer
# (must strictly reduce the workload and keep the fingerprint — the CLI
# exits non-zero otherwise), then rebuild and re-verify the artifact.
shrink-smoke:
	dune exec bin/chipmunk_cli.exe -- minimize --bug 4 --expect-shrink \
	  --out _build/bug-4.repro.json
	dune exec bin/chipmunk_cli.exe -- reproduce --bug 4 _build/bug-4.repro.json

# Sharded-fuzzer smoke test: a short campaign on buggy NOVA at --jobs 1
# and --jobs 2 with the same seed must report the identical finding lines
# (the Chipmunk.Run determinism contract), and must find something.
fuzz-parallel-smoke:
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 96 \
	  --seed 7 --jobs 1 | grep '^finding' > _build/fuzz-smoke-j1.txt
	dune exec bin/chipmunk_cli.exe -- fuzz --fs nova --buggy --execs 96 \
	  --seed 7 --jobs 2 | grep '^finding' > _build/fuzz-smoke-j2.txt
	test -s _build/fuzz-smoke-j1.txt
	diff -u _build/fuzz-smoke-j1.txt _build/fuzz-smoke-j2.txt

# Cache-transparency smoke test: the verdict cache must not change what a
# campaign finds, only how fast it finds it. Run the buggy-NOVA ACE suite
# with the verdict cache on (the default) and off; the per-finding
# fingerprint lines must match exactly (only the hit-rate footer may differ).
cache-smoke:
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  | grep '^fingerprint' > _build/cache-smoke-default.txt
	dune exec bin/chipmunk_cli.exe -- ace --fs nova --buggy --suite seq1 \
	  --no-vcache | grep '^fingerprint' > _build/cache-smoke-novcache.txt
	test -s _build/cache-smoke-default.txt
	diff -u _build/cache-smoke-novcache.txt _build/cache-smoke-default.txt

# Rewrite BENCH_parallel.json (verdict cache off/on and sequential vs
# parallel wall-clock, hit rates, states/sec and mounts/sec; one run per
# config) so the perf trajectory is tracked across commits.
# Override the worker-domain count with CHIPMUNK_JOBS=N.
bench-perf:
	dune exec bench/main.exe parallel

# Rewrite BENCH_fuzz.json (fuzzer execs/sec at jobs=1/2/4 plus the
# cross-job determinism check).
bench-fuzz:
	dune exec bench/main.exe fuzz-parallel

# Rewrite BENCH_shrink.json (delta-debugging shrink factors over the
# 25-bug corpus).
bench-shrink:
	dune exec bench/main.exe shrink

clean:
	dune clean
