GO ?= go

.PHONY: build test race fuzz bench bench-alloc vet prof prof-golden server fleet-smoke swizzle-smoke chiplet-smoke calib-smoke cover docs-check

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
# bijectivity and the calibration reference codec; CI runs these
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
# byte-identity, 16-way request dedup, client-disconnect cancellation,
# queue shedding) plus the result-cache/key units and the
# engine/eval cancellation tests, all under the race detector.
server:
	$(GO) test -race ./internal/server/... ./internal/rescache ./internal/api
	$(GO) test -race -run 'Cancel|Deadline|Context' ./internal/engine ./internal/eval

# The fleet gate the CI enforces: the distributed-sweep determinism
# suite (3 backends with one failing mid-sweep and one dead, merged
# bytes identical to serial `evaluate -json`), the disk-cache
# crash/corruption recovery scenarios, and the daemon restart
# persistence e2e, all under the race detector.
fleet-smoke:
	$(GO) test -race ./internal/fleet ./internal/rescache ./internal/cli
	$(GO) test -race -run 'DiskCache' ./internal/server

# The swizzle gate the CI enforces: the transform-family unit wall
# (conservation, fuzz-seeded bijectivity, analyzer goldens, zero-alloc
# contract), the swizzled rerun byte-identity sweep, and a
# 2-app x 2-arch three-way clustering-vs-swizzling-vs-both comparison
# smoke through the real evaluate binary, all under the race detector.
swizzle-smoke:
	$(GO) test -race ./internal/swizzle ./internal/eval -run 'Swizzle'
	$(GO) run -race ./cmd/evaluate -swizzle-compare -apps MM,SGM -arch TeslaK40 -quick > /dev/null
	$(GO) run -race ./cmd/evaluate -swizzle-compare -apps MM,SGM -arch GTX980 -quick -json > /dev/null

# The chiplet gate the CI enforces: the monolithic-equivalence matrix
# (Chiplets=0 byte-identical to the seed descriptor), the 2-die
# calendar-queue vs reference-heap matrix, the die-aware swizzle and
# slice/interposer unit walls, and a real 2-die clustering-vs-dieblock
# comparison smoke through the evaluate binary, all under the race
# detector.
chiplet-smoke:
	$(GO) test -race -run 'Chiplet|DieBlock|DieOf' ./internal/arch ./internal/mem ./internal/swizzle ./internal/engine
	$(GO) run -race ./cmd/evaluate -chiplet 2 -chiplet-compare -apps MM,NW -arch TeslaK40 > /dev/null
	$(GO) run -race ./cmd/evaluate -chiplet 2 -chiplet-compare -apps MM -arch GTX980 -json > /dev/null

# The calibration gate the CI enforces: the calib package wall (codec
# canonical-form goldens, fitter determinism and recovery) under the
# race detector, a fit smoke through the real ctacalib binary, a
# serial-vs-parallel byte-identity check of the rendered report, and a
# byte-exact regeneration of the committed BENCH_calib.json accuracy
# ledger (the file is dateless on purpose so cmp can gate it).
calib-smoke:
	$(GO) test -race ./internal/calib
	$(GO) run -race ./cmd/ctacalib fit -arch TeslaK40 > /dev/null
	$(GO) run ./cmd/ctacalib report -arch GTX570 -apps MM,SGM,NW -parallel 1 > /tmp/ctacalib-serial.txt
	$(GO) run ./cmd/ctacalib report -arch GTX570 -apps MM,SGM,NW -parallel 4 > /tmp/ctacalib-parallel.txt
	cmp /tmp/ctacalib-serial.txt /tmp/ctacalib-parallel.txt
	$(GO) run ./cmd/ctacalib report -json > /tmp/ctacalib-bench.json
	cmp /tmp/ctacalib-bench.json BENCH_calib.json

# The coverage gate the CI enforces: per-package statement coverage from
# the full suite, with a hard 70% floor on internal/calib (the accuracy
# ledger; a coverage hole there un-pins BENCH numbers silently) and
# report-only visibility everywhere else (tools/covercheck).
cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) run ./tools/covercheck -profile cover.out

# The docs gate the CI enforces: every internal/* and cmd/* package must
# carry a package-level doc comment, and every flag that README.md or
# EXPERIMENTS.md passes to one of this repo's commands must actually be
# registered by that command (tools/docscheck).
docs-check:
	$(GO) run ./tools/docscheck

# Regenerate the profiling exporter goldens (internal/prof/testdata)
# after a deliberate format or simulation change; review the diff before
# committing.
prof:
	$(GO) test -run 'Golden' -update ./internal/prof

# The profiling gate the CI enforces: exporter goldens, snapshot
# conservation and the serial-vs-parallel profile determinism sweep,
# all under the race detector.
prof-golden:
	$(GO) test -race -run 'Golden|Snapshot|Profile' ./internal/prof ./internal/eval
