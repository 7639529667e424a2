GO ?= go

.PHONY: build test race verify lint lint-report cover tables tables-check bench bench-smoke trace-smoke store-smoke fuzz-smoke

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

# tables-check runs the full study into a fresh temporary directory
# (mptables -out does not create one) and byte-compares all nine files it
# writes with the committed artifacts/: the lock on Tables IV and V and
# Figures 2a, 2b and 3, which the kernels-only go test never runs. It
# reports every file that differs. The study took 21 s on a 2-core
# machine (one run, compile included), so it runs here and in CI rather
# than in go test.
TABLE_ARTIFACTS = table1.txt table2.txt table3.txt table4.txt table5.txt \
	figure2a.csv figure2b.csv figure3.csv comparison.md
tables-check:
	@dir=$$(mktemp -d) && trap 'rm -rf "$$dir"' EXIT && \
	$(GO) run ./cmd/mptables -out "$$dir" > /dev/null && \
	status=0 && \
	for f in $(TABLE_ARTIFACTS); do cmp "$$dir/$$f" "artifacts/$$f" || status=1; done && \
	if [ $$status -ne 0 ]; then echo "tables-check: artifacts/ differs from a fresh study"; exit 1; fi && \
	echo "tables-check: all nine artifacts match artifacts/"

# bench runs the benchmark module (benchmark/, BENCHMARK.json) as a set:
# every workload 3 times (seeds 42, 43, 44) with 20 s timed phases. It
# prints each metric's median and quartiles and each workload's
# correctness, and writes the set, with its environment record, to
# artifacts/bench.json. Expect several minutes. A set alone gives no
# verdict: a speed claim runs the parent and the change in interleaved
# pairs (bash benchmark/run.sh -pair, see benchmark/README.md) and
# commits that file under pairs/.
bench:
	@mkdir -p artifacts
	bash benchmark/run.sh -out artifacts/bench.json

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

# bench-smoke compiles and runs every go test -bench loop once (CI's
# guard against benchmark rot; no timing value). The loops are developer
# tools; speed is measured by make bench. The root pattern covers every
# kernel campaign benchmark - BenchmarkTableIII (shared cache, through
# report.Run), and the cold-cache and three-rung campaigns (through
# harness.RunCampaign) - so the evaluation path runs end to end.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x ./internal/mp ./internal/bench ./internal/runcache
	$(GO) test -run '^$$' -bench 'BenchmarkCampaign|BenchmarkTableIII$$' -benchtime=1x .

# fuzz-smoke runs each native fuzz target for a fixed 10 s budget (CI's
# guard that the targets still build, run, and find nothing new in a
# short search; the checked-in seed corpora under testdata/fuzz run on
# every plain go test). go test fuzzes one target in one package per
# invocation, so each target gets its own line. FuzzReadJournal, FuzzOpen
# and FuzzReadArchive fsync per input, so minimizing one multi-kilobyte
# input within the default 60 s would use the whole budget; they
# minimize for 100 runs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzRoundBinary$$' -fuzztime=10s ./internal/mp
	$(GO) test -run '^$$' -fuzz '^FuzzParseLadder$$' -fuzztime=10s ./internal/mp
	$(GO) test -run '^$$' -fuzz '^FuzzParseKey$$' -fuzztime=10s ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeResult$$' -fuzztime=10s ./internal/bench
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s ./internal/yamlite
	$(GO) test -run '^$$' -fuzz '^FuzzParseCampaign$$' -fuzztime=10s ./internal/harness
	$(GO) test -run '^$$' -fuzz '^FuzzReadJournal$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/harness
	$(GO) test -run '^$$' -fuzz '^FuzzOpen$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/store
	$(GO) test -run '^$$' -fuzz '^FuzzReadArchive$$' -fuzztime=10s -fuzzminimizetime=100x ./internal/engine
	$(GO) test -run '^$$' -fuzz '^FuzzParseSpec$$' -fuzztime=10s ./internal/faults
	$(GO) test -run '^$$' -fuzz '^FuzzReadSpace$$' -fuzztime=10s ./internal/interchange
	$(GO) test -run '^$$' -fuzz '^FuzzReadConfig$$' -fuzztime=10s ./internal/interchange
