# Three kinds of measurement live in this tree, and only the first two
# judge a change:
#
#   gate       `make check`: gofmt, vet (+ metriclint), a full build, the
#              package census, the test suite under the race detector
#              (the collector, LG client, analysis index and experiment
#              pool are exercised concurrently; -race is part of the
#              contract), the soak run, the ixpd smoke walk, the five
#              example programs and `oneworld` (Tables 3/4 over a
#              generated lab equal the same tables over the dataset
#              `ixpgen` writes at the commands' defaults).
#              The deterministic performance floors are tests and run
#              here, a second time without the race detector (`floors`,
#              over the tests FLOORS names below; their allocation
#              halves skip under -race). Every step runs the tree; none
#              compares committed files.
#   benchmark  benchmarks/e2e, declared by BENCHMARK.json: five
#              output-checked workloads, judged in alternating pairs of
#              runs (parent, change) against BENCHMARK.json's bounds.
#              `make bench` runs each workload once on this tree.
#   diagnostic the `go test -bench` suites (the rs and analysis
#              ablations, collector, analysis, lg, mrt, rsconfig,
#              telemetry, ixpd, report): run by hand to find where time
#              goes; nothing gates on or archives them.

GO ?= go

.PHONY: check fmt vet build census test race floors bench fuzz soak soak-long ixpd-smoke examples oneworld

check: fmt vet build census race floors soak ixpd-smoke examples oneworld

# fmt fails, naming the files, if anything in the tree is not gofmt-clean.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

# vet runs the stock analyzers plus metriclint, which pins the metric
# naming contract (every family registered on a telemetry.Registry is
# a literal matching ^ixplight_[a-z_]+$) and fails on a family
# registered into a struct field that no non-test code of its package
# reads, and on a function that registers families but that no non-test
# code calls.
vet:
	$(GO) vet ./...
	$(GO) run ./cmd/metriclint .

build:
	$(GO) build ./...

# census keeps the tree's inventory true: every ./internal/... package
# is one some command or the benchmark actually links. A package only
# tests or examples reach is named here or deleted.
CENSUS_ALLOW := ixplight/internal/webdocs # ROADMAP item 2b decides: the crawl parses it, or it goes
census:
	@linked="$$($(GO) list -deps ./cmd/... ./benchmarks/e2e)"; \
	for pkg in $$($(GO) list ./internal/...); do \
		case " $(CENSUS_ALLOW) $$linked " in *[[:space:]]$$pkg[[:space:]]*) ;; \
		*) echo "census: $$pkg is linked by no command and not by the benchmark"; bad=1;; esac; \
	done; [ -z "$$bad" ]

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# floors runs exactly the floors FLOORS names, without -race, where
# allocation counts mean something. It first lists the tree's tests
# against FLOORS once and fails, naming it, on an entry that names no
# test: a renamed or misspelt floor would otherwise pass having run
# nothing.
FLOORS := TestWarmColdSpeedup|TestAdvanceBytesPerDay|TestAdvanceAllocs|TestMaterializeAllocs|TestLoadedLabHeap|TestIndexFromColumnsAllocs|TestVisibilityAllocs|TestGenerateAllocs|TestAnnounceAllocs|TestReloadWorkIsProportional|TestServeAllocs|TestServedPageAllocsIndependentOfPageSize|TestCrawlAllocsPerRoute
floors:
	@listed=" $$($(GO) test -list '^($(FLOORS))$$' ./... | grep '^Test' | tr '\n' ' ')"; \
	for f in $$(echo '$(FLOORS)' | tr '|' ' '); do \
		case "$$listed" in *" $$f "*) ;; *) echo "floors: $$f names no test"; bad=1;; esac; \
	done; [ -z "$$bad" ]
	$(GO) test -run '^($(FLOORS))$$' ./...

# fuzz is opt-in and not part of check: `go test` only replays each
# fuzzer's seed corpus, so after touching a decoder or an incremental
# path, run every Fuzz* target the tree lists for FUZZTIME each. It stops
# at the first crasher, which go leaves under the package's
# testdata/fuzz/ as a regression input.
FUZZTIME ?= 10s
fuzz:
	@for pkg in $$($(GO) list ./...); do \
		for f in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$f ($(FUZZTIME))"; \
			$(GO) test $$pkg -run '^$$' -fuzz "^$$f"'$$' -fuzztime $(FUZZTIME) || exit 1; \
		done; \
	done

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

# examples runs each examples/* program and fails on a non-zero exit:
# they are documentation that executes, and this is what keeps them true.
examples:
	@for d in examples/*/; do echo "$(GO) run ./$$d"; $(GO) run ./$$d >/dev/null || exit 1; done

# oneworld writes the twelve-week dataset `ixpgen -codec delta` makes
# and fails unless `analyze -exp table3,table4` reads the same tables
# off it as off a lab it generates itself: one series generator, and
# the two commands' defaults (seed, churn, start date) still agree.
# TestStabilityIsOneWorld pins the library half; this pins the commands.
# Seconds.
ONEWORLD := -ixps DE-CIX,LINX -scale 0.004
oneworld:
	@dir="$$(mktemp -d)"; trap 'rm -rf "$$dir"' EXIT; \
	$(GO) run ./cmd/ixpgen -out "$$dir" -codec delta -days 84 $(ONEWORLD) && \
	$(GO) run ./cmd/analyze -exp table3,table4 $(ONEWORLD) >"$$dir/generated.txt" && \
	$(GO) run ./cmd/analyze -exp table3,table4 $(ONEWORLD) -snapshots "$$dir/snapshots" >"$$dir/loaded.txt" && \
	cmp "$$dir/generated.txt" "$$dir/loaded.txt" && echo "oneworld: Tables 3/4 agree"

# bench runs the benchmark (benchmarks/e2e) once per workload declared in
# BENCHMARK.json, on this tree. One run is a reading, not a verdict: a
# change is judged by alternating pairs of such runs on the parent and
# on the change, each metric against its BENCHMARK.json bound
# (benchmarks/e2e/README.md; `-aa N` holds the instrument to the same
# bounds against itself). The `go test -bench` suites are diagnostic:
#   go test -run '^$$' -bench . -benchmem ./internal/analysis
bench:
	@for w in $$(sed -n '/"workloads"/,/\]/s/.*"name": "\(.*\)",.*/\1/p' BENCHMARK.json); do \
		echo "== $$w"; bash benchmarks/e2e/run.sh -workload $$w || exit 1; done
