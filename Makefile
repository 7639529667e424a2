GO ?= go

.PHONY: build test race verify lint lint-report cover tables bench bench-smoke trace-smoke store-smoke fuzz-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# verify is the gate for every change: vet, the optional linters, and the
# full test suite under the race detector (the telemetry determinism tests
# require -race to mean anything).
verify: lint
	$(GO) vet ./...
	$(GO) test -race ./...

# lint first fails on any Go file gofmt would rewrite (testdata/ is
# exempt: analyzer fixtures keep their layout), then always runs mixplint
# (the in-repo multichecker: typedepcheck, the determinism analyzers, and
# the soundness suite — puritycheck, keycheck, fsyncpath; see DESIGN.md
# "Static analysis"), then staticcheck and govulncheck when they are
# installed — verify works on machines without the external tools; CI
# installs both and runs them unconditionally. New analyzers registered
# in cmd/mixplint are picked up here automatically.
lint:
	@unformatted=$$(gofmt -l $$(find . -name '*.go' -not -path '*/testdata/*' -not -path './.bench_build/*')); \
	if [ -n "$$unformatted" ]; then echo "lint: gofmt -l flags:"; echo "$$unformatted"; exit 1; fi
	$(GO) run ./cmd/mixplint ./...
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# lint-report writes the machine-readable mixplint reports (including
# the suppressed findings and their justifications): artifacts/lint.json
# for tooling and artifacts/lint.sarif for code-scanning upload.
lint-report:
	@mkdir -p artifacts
	$(GO) run ./cmd/mixplint -json ./... > artifacts/lint.json || true
	$(GO) run ./cmd/mixplint -sarif ./... > artifacts/lint.sarif || true
	@echo "lint-report: artifacts/lint.json artifacts/lint.sarif"

cover:
	$(GO) test -coverprofile=coverage.out ./...
	$(GO) tool cover -func=coverage.out | tail -1

tables:
	$(GO) run ./cmd/mptables

# bench runs the performance suite 5 times with allocation stats: the tape
# and cache micro-benchmarks plus the campaign pairs - shared-vs-cold
# cache (BenchmarkCampaignSharedCache / BenchmarkCampaignColdCache; the
# cold side runs every proposal through its compiled kernel) and
# two-vs-three-rung ladder depth (BenchmarkCampaignLadder2 /
# BenchmarkCampaignLadder3). The campaign
# benchmarks pin -benchtime=5x so both halves of each pair do identical
# work and the numbers compare across runs. Raw output lands in
# artifacts/, then benchjson aggregates it into the machine-readable
# BENCH_9.json perf trajectory and refreshes the pair sections of
# artifacts/comparison.md; EXPERIMENTS.md records the reference numbers.
bench:
	@mkdir -p artifacts
	$(GO) test -run '^$$' -bench . -benchmem -count=5 ./internal/mp ./internal/bench | tee artifacts/bench-micro.txt
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign|BenchmarkTableIII|BenchmarkEvaluatorThroughput' -benchmem -benchtime=5x -count=5 . | tee artifacts/bench-campaign.txt
	$(GO) run ./cmd/benchjson -out BENCH_9.json -comparison artifacts/comparison.md \
		artifacts/bench-micro.txt artifacts/bench-campaign.txt
	@echo "bench: BENCH_9.json artifacts/comparison.md"

# trace-smoke runs the small fault-injection campaign, exports its
# deterministic trace and profile into artifacts/, and validates the
# trace against the Chrome trace_event schema - the end-to-end guard
# behind the observability surface (see README "Observability").
trace-smoke:
	@mkdir -p artifacts
	$(GO) run ./cmd/mixpbench -config configs/faulty.yaml -seed 42 \
		-trace artifacts/trace.json -profile artifacts/profile.json
	$(GO) run ./cmd/tracecheck artifacts/trace.json
	@echo "trace-smoke: artifacts/trace.json artifacts/profile.json"

# store-smoke drives the durability loop end to end against the real
# binary: run the fault-injection campaign with a durable result store
# and a checkpoint journal, SIGKILL it mid-run, restart over the torn
# state, and assert the recovered campaign is byte-identical to an
# uninterrupted storeless run - then re-run warm and assert a >=99%
# store hit rate. Store stats land in artifacts/ (see README
# "Durability").
store-smoke:
	@mkdir -p artifacts
	sh ./scripts/store-smoke.sh artifacts

# bench-smoke compiles and runs every benchmark once (CI's guard against
# benchmark rot; no timing value). The BenchmarkCampaign pattern covers
# every campaign benchmark - shared and cold cache, two- and three-rung
# ladders - so the compiled evaluation path runs end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/mp ./internal/bench ./internal/runcache
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign' -benchtime=1x .

# fuzz-smoke runs each native fuzz target for a fixed 10 s budget (CI's
# guard that the targets still build, run, and find nothing new in a
# short search; the checked-in seed corpora under testdata/fuzz run on
# every plain go test). go test fuzzes one target in one package per
# invocation, so each target gets its own line.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRoundBinary$$' -fuzztime=10s ./internal/mp
	$(GO) test -run '^$$' -fuzz '^FuzzParseLadder$$' -fuzztime=10s ./internal/mp
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/yamlite
