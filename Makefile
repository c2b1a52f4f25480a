# Convenience targets; everything here is a thin alias over the go tool.

.PHONY: build test race lint lint-sarif baseline cfg-debug sweep-smoke bench bench-gate

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...

# Whole-tree static analysis, gated on the suppression-debt ledger.
lint:
	go run ./cmd/reprolint -baseline .reprolint-baseline.json ./...

# Same run, but also emit the SARIF report CI uploads as an artifact.
lint-sarif:
	go run ./cmd/reprolint -baseline .reprolint-baseline.json -sarif reprolint.sarif ./...

# Regenerate the suppression-debt ledger from the current findings.
baseline:
	go run ./cmd/reprolint -baseline .reprolint-baseline.json -write-baseline ./...

# Dump the control-flow graph the dataflow analyzer builds for one
# function, e.g.
#   make cfg-debug FN=internal/engine/engine.go:commit
cfg-debug:
	go run ./cmd/reprolint -cfg-debug $(FN)

# Small cross-model grid (every model × algorithm plus fault and
# experiment cells) through the sweep runner, race-enabled.
sweep-smoke:
	go run -race ./cmd/parsim sweep -preset smoke -o /tmp/sweep_smoke.jsonl -csv /tmp/sweep_smoke.csv

# Re-measure the bench snapshot (model metrics + ns/op + allocs/op for
# the internal/sweep bench registry) and overwrite the committed
# baseline. Each row keeps the fastest of three runs, whose model
# metrics must agree exactly. GOMAXPROCS is pinned so the host's core
# count does not move the timed rows.
bench:
	GOMAXPROCS=2 go run ./cmd/parsim sweep -bench -bench-runs 3 -bench-o BENCH_pr34.json

# Same measurement, but gate against the committed snapshot: exact model
# metrics, 3x ns/op tolerance, 1.25x allocs/op and B/op tolerance.
bench-gate:
	GOMAXPROCS=2 go run ./cmd/parsim sweep -bench -bench-baseline BENCH_pr34.json
