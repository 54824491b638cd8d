# Pre-PR check: `make check` runs gofmt, vet, a full build, and the test
# suite with the race detector (the collector, LG client, analysis
# index and experiment pool are exercised concurrently; -race is part
# of the contract).

GO ?= go
BENCH_DATE := $(shell date +%Y%m%d)

.PHONY: check fmt vet build test race bench benchdiff soak soak-long ixpd-smoke

check: fmt vet build race soak ixpd-smoke benchdiff

# fmt fails, naming the files, if anything in the tree is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# vet runs the stock analyzers plus metriclint, which pins the metric
# naming contract: every family registered on a telemetry.Registry is
# a literal matching ^ixplight_[a-z_]+$.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/metriclint .

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# soak is the quick deterministic chaos run: 3 simulated IXPs on real
# sockets, 2 servers killed and restarted mid-crawl, every robustness
# invariant checked (see internal/soak). Seeded, so a failure here is
# replayable with the same command. Finishes in a few seconds.
soak:
	$(GO) run ./cmd/soak -v

# soak-long is the opt-in heavy variant: every calibrated IXP, more
# kills, several chaos rounds and bigger workloads — and the full reload
# oracle: 200 seeded dataset-directory mutations per loader configuration
# over the big four, a reloading ixpd compared with a fresh load on every
# endpoint after each (its short cut, TestReloadScript, is part of
# `go test ./...`; the long one runs only when named).
soak-long:
	$(GO) run ./cmd/soak -v -ixps 8 -kills 4 -rounds 3 -scale 0.01 -timeout 15m
	$(GO) test ./internal/ixpd -run TestReloadScriptLong -count=1 -timeout 15m -v

# ixpd-smoke boots the analysis daemon on ephemeral loopback ports and
# walks its serving contract end to end: readiness gating, one
# experiment fetch with a strong ETag, a 304 revalidation of the same
# query, and a /metrics scrape showing the served requests. Seconds,
# deterministic, part of check.
ixpd-smoke:
	$(GO) run ./cmd/ixpd -smoke -ixps DE-CIX,AMS-IX -scale 0.01

# bench runs the full benchmark suite once — the paper-experiment
# benches in the root package plus the collection-path benches in
# internal/collector (crawl parallelism, snapshot codecs),
# internal/analysis (index construction per source, series advance,
# the direct-classify ablation), internal/lg (client hot paths) and
# internal/telemetry (instrument overhead, including the
# disabled-path zero-alloc pin), internal/ixpd (the daemon's
# cold/warm/304 serving tiers plus the socket-level load phases) and
# internal/report (LoadSnapshotDir over delta chains, sequential and
# folded per IXP, and the same dataset loaded from a predecessor after
# one day landed) — and
# archives the merged results as
# machine-readable JSON (BENCH_<yyyymmdd>.json), for comparison across
# commits. The live text output still streams to the terminal, and the
# archive is diffed against the previous one (informational here; the
# enforcing gate is `make check`).
BENCH_PKGS := . ./internal/collector ./internal/analysis ./internal/lg ./internal/telemetry ./internal/ixpd ./internal/report
bench:
	$(GO) test -bench=. -benchmem -count=1 $(BENCH_PKGS) | $(GO) run ./cmd/benchjson -out BENCH_$(BENCH_DATE).json -date $(BENCH_DATE)
	-$(GO) run ./cmd/benchdiff BENCH_$(BENCH_DATE).json

# benchdiff guards the snapshot-codec and index-construction suites,
# the dataset load, the tracing span-overhead tiers and the ixpd
# serving/load suites
# (`benchdiff -h` prints the full guarded list): it compares the two newest
# BENCH_*.json archives and fails on any ns/op regression above 20%. With fewer than two archives it is a
# no-op, so check stays green on fresh clones.
benchdiff:
	$(GO) run ./cmd/benchdiff
