GO ?= go

.PHONY: build test race fuzz bench bench-alloc vet prof prof-golden server swizzle-smoke chiplet-smoke calib-smoke cover docs-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test: build
	$(GO) test ./...

# The race gate the CI enforces: vet plus the full suite under the race
# detector. The expensive determinism sweeps shrink themselves to a
# representative app subset when they detect race instrumentation (see
# internal/eval/race_test.go), so this stays tractable.
race:
	$(GO) vet ./...
	$(GO) test -race ./...

# Short fuzz smoke of the partition bijection, the swizzle bijectivity,
# the event-queue pop order, the disk-cache entry codec, the die-block
# bijectivity, the calibration reference codec and the coalescer
# against its sort-based reference; CI runs these
# bounded, `make fuzz FUZZTIME=10m` digs deeper locally. (go test accepts one -fuzz pattern
# per run, so each target is its own invocation.)
FUZZTIME ?= 30s
fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzPartitionRoundTrip -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run='^$$' -fuzz=FuzzSwizzleBijective -fuzztime=$(FUZZTIME) ./internal/swizzle
	$(GO) test -run='^$$' -fuzz=FuzzEventQueueOrder -fuzztime=$(FUZZTIME) ./internal/engine
	$(GO) test -run='^$$' -fuzz=FuzzDiskCacheEntry -fuzztime=$(FUZZTIME) ./internal/rescache
	$(GO) test -run='^$$' -fuzz=FuzzDieBlockBijective -fuzztime=$(FUZZTIME) ./internal/swizzle
	$(GO) test -run='^$$' -fuzz=FuzzCalibReference -fuzztime=$(FUZZTIME) ./internal/calib
	$(GO) test -run='^$$' -fuzz=FuzzAppendTransactions -fuzztime=$(FUZZTIME) ./internal/kernel

bench:
	$(GO) test -bench=. -benchmem ./...

# The allocation gate the CI enforces: the pinned allocation budget
# table (alloc_ext_test.go — every cell within 5% of the post-diet
# measurement), the zero-alloc queue and coalescing contracts, and a
# short allocation-reporting pass of the serial MM/TeslaK40 run
# benchmark for the log. Uninstrumented on purpose: race builds change
# allocation counts, so this gate is the one place the CI runs the
# engine without -race.
# Pipe two runs through `benchstat` locally if you want significance
# on the ns/op column; the alloc columns are deterministic.
bench-alloc:
	$(GO) test -run='TestAllocationBudgets|TestEventQueueSchedulePopZeroAlloc|TestAppendTransactionsZeroAlloc|TestAnalyzerZeroAlloc|TestAnalyzerAllocationBudgets' -count=1 -v ./internal/engine ./internal/kernel ./internal/swizzle | grep -v '^=== RUN'
	$(GO) test -run='^$$' -bench='^BenchmarkRun$$' -benchtime=3x -benchmem ./internal/engine

# The daemon gate the CI enforces: the ctad end-to-end suite (cold/warm
# byte-identity, sweep bytes identical to the in-process sweep that
# `evaluate -json` prints, 16-way request dedup, client-disconnect
# cancellation, queue shedding, restart persistence from the disk
# tier) plus the result-cache/key units with the disk-cache
# crash/corruption matrix and the engine/eval cancellation tests, all
# under the race detector.
server:
	$(GO) test -race ./internal/server/... ./internal/rescache ./internal/api
	$(GO) test -race -run 'Cancel|Deadline|Context' ./internal/engine ./internal/eval

# The swizzle gate the CI enforces: the transform-family unit wall
# (conservation, fuzz-seeded bijectivity, analyzer goldens, zero-alloc
# contract), the swizzled rerun byte-identity sweep, and a
# 2-app x 2-arch three-way clustering-vs-swizzling-vs-both comparison
# smoke through the real evaluate binary, all under the race detector;
# then a byte-exact regeneration of the committed BENCH_swizzle.json
# comparisons (its metadata keys are dated, so only .comparisons is
# compared).
swizzle-smoke:
	$(GO) test -race ./internal/swizzle ./internal/eval -run 'Swizzle'
	$(GO) run -race ./cmd/evaluate -swizzle-compare -apps MM,SGM -arch TeslaK40 -quick > /dev/null
	$(GO) run -race ./cmd/evaluate -swizzle-compare -apps MM,SGM -arch GTX980 -quick -json > /dev/null
	$(GO) run ./cmd/evaluate -swizzle-compare -json | jq .comparisons > /tmp/swizzle-bench.json
	jq .comparisons BENCH_swizzle.json | cmp - /tmp/swizzle-bench.json

# The chiplet gate the CI enforces: the monolithic-equivalence matrix
# (Chiplets=0 byte-identical to the seed descriptor), the 2-die
# calendar-queue vs reference-heap matrix, the die-aware swizzle and
# slice/interposer unit walls, and a real 2-die clustering-vs-dieblock
# comparison smoke through the evaluate binary, all under the race
# detector; then a byte-exact regeneration of the committed
# BENCH_chiplet.json comparisons.
chiplet-smoke:
	$(GO) test -race -run 'Chiplet|DieBlock|DieOf' ./internal/arch ./internal/mem ./internal/swizzle ./internal/engine
	$(GO) run -race ./cmd/evaluate -chiplet 2 -chiplet-compare -apps MM,NW -arch TeslaK40 > /dev/null
	$(GO) run -race ./cmd/evaluate -chiplet 2 -chiplet-compare -apps MM -arch GTX980 -json > /dev/null
	$(GO) run ./cmd/evaluate -chiplet 2 -chiplet-compare -json | jq .comparisons > /tmp/chiplet-bench.json
	jq .comparisons BENCH_chiplet.json | cmp - /tmp/chiplet-bench.json

# The calibration gate the CI enforces: the calib package wall (codec
# canonical form, apps.csv against the simulator, the paper scorer on
# synthetic sweeps, fitter determinism and recovery) under the race
# detector, a fit smoke through the real ctacalib binary, a
# serial-vs-parallel byte-identity check of the rendered report, and a
# byte-exact regeneration of the committed BENCH_calib.json paper
# report (the file is dateless on purpose so cmp can gate it).
calib-smoke:
	$(GO) test -race ./internal/calib
	$(GO) run -race ./cmd/ctacalib fit -arch TeslaK40 > /dev/null
	$(GO) run ./cmd/ctacalib report -arch GTX570 -parallel 1 > /tmp/ctacalib-serial.txt
	$(GO) run ./cmd/ctacalib report -arch GTX570 -parallel 4 > /tmp/ctacalib-parallel.txt
	cmp /tmp/ctacalib-serial.txt /tmp/ctacalib-parallel.txt
	$(GO) run ./cmd/ctacalib report -json > /tmp/ctacalib-bench.json
	cmp /tmp/ctacalib-bench.json BENCH_calib.json

# The coverage gate the CI enforces: per-package statement coverage from
# the full suite, with a hard 70% floor on internal/calib (the paper
# scorer and fitter; a coverage hole there un-pins BENCH_calib.json
# silently) and report-only visibility everywhere else
# (tools/covercheck).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./tools/covercheck -profile cover.out

# The docs gate the CI enforces: every internal/* and cmd/* package must
# carry a package-level doc comment, every flag that README.md or
# EXPERIMENTS.md passes to one of this repo's commands must actually be
# registered by that command, and EXPERIMENTS.md's Figure 12/13
# geo-mean tables must match paper.csv and BENCH_calib.json
# (tools/docscheck).
docs-check:
	$(GO) run ./tools/docscheck

# Regenerate the profiling exporter goldens (internal/prof/testdata)
# after a deliberate format or simulation change; review the diff before
# committing.
prof:
	$(GO) test -run 'Golden' -update ./internal/prof

# The profiling gate the CI enforces: exporter goldens and snapshot
# conservation, under the race detector.
prof-golden:
	$(GO) test -race -run 'Golden|Snapshot|Profile' ./internal/prof
