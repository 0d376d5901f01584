GO ?= go

.PHONY: build test check fmt vet race bench bench-json benchdiff cover smoke fuzz-short run-report

build:
	$(GO) build ./...

test:
	$(GO) test ./...

fmt:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./internal/core/... ./internal/obs/... ./internal/checkpoint/... ./internal/storage/... ./internal/bench/... ./internal/serve/...

bench:
	$(GO) test -bench BenchmarkEngine -benchmem -run '^$$' ./internal/core/

# bench-json records the engine, codec and preprocessing (chunk sort,
# merge, convert) benchmarks as a JSON snapshot for the CI regression
# gate; benchdiff compares it to the committed baseline. Entries without
# a baseline are reported as informational.
bench-json:
	{ $(GO) test -bench BenchmarkEngine -benchmem -run '^$$' ./internal/core/ ; \
	  $(GO) test -bench BenchmarkCodec -benchmem -run '^$$' ./internal/storage/ ; \
	  $(GO) test -bench 'BenchmarkSortChunk|BenchmarkMerge' -benchmem -run '^$$' ./internal/extsort/ ; \
	  $(GO) test -bench BenchmarkConvert -benchmem -run '^$$' ./internal/dos/ ; } \
		| $(GO) run ./cmd/graphz-benchdiff -record -out BENCH_core.json

benchdiff: bench-json
	$(GO) run ./cmd/graphz-benchdiff -baseline ci/bench-baseline.json -current BENCH_core.json -threshold 0.15

cover:
	$(GO) test -coverprofile=cover.out ./internal/...
	$(GO) tool cover -func=cover.out | tail -1

# smoke runs the randomized crash-recovery property tests (engines killed
# at random device operations must resume to byte-identical results), a
# run-report round trip (a profiled run writes its artifact, and
# graphz-report must render and self-diff it cleanly), the semi-external
# differential at the exec level (the same generated graph run with
# -sem on and -sem off must print byte-identical results, and the SEM
# run's report must render), and the graphz-serve end-to-end session:
# boot on a free port, submit BFS and PageRank jobs, poll to completion,
# fetch results and reports, cancel, and drain on SIGINT.
smoke:
	$(GO) test -run 'TestCrashRecovery' -count=1 -v ./internal/core/
	$(GO) run ./cmd/graphz-run -gen rmat -gen-scale 8 -gen-edges 2000 -seed 7 -algo cc -report RUNREPORT_smoke.json
	$(GO) run ./cmd/graphz-report show RUNREPORT_smoke.json
	$(GO) run ./cmd/graphz-report diff RUNREPORT_smoke.json RUNREPORT_smoke.json
	$(GO) run ./cmd/graphz-run -gen zipf -gen-vertices 4000 -gen-edges 30000 -seed 9 -algo cc -sem on -top 20 -report RUNREPORT_sem.json | grep -A20 'top 20 vertices' > SEM_on.txt
	$(GO) run ./cmd/graphz-run -gen zipf -gen-vertices 4000 -gen-edges 30000 -seed 9 -algo cc -sem off -top 20 | grep -A20 'top 20 vertices' > SEM_off.txt
	diff SEM_on.txt SEM_off.txt && rm -f SEM_on.txt SEM_off.txt
	$(GO) run ./cmd/graphz-report show RUNREPORT_sem.json
	$(GO) test -run 'TestServe' -count=1 -v ./cmd/graphz-serve/

# run-report emits the reference profiled run's artifact (stage totals,
# memory timeline, block heatmap) for the CI bench job to upload next to
# the benchmark snapshot. Inspect with `graphz-report show`, compare two
# revisions with `graphz-report diff`.
run-report:
	$(GO) run ./cmd/graphz-run -gen rmat -gen-scale 10 -gen-edges 8192 -seed 7 -algo pr -report RUNREPORT_run.json
	$(GO) run ./cmd/graphz-report show RUNREPORT_run.json

# fuzz-short gives each DOS parser and codec fuzz target a bounded
# budget — 10s locally, FUZZTIME=30s in the CI fuzz job (which also
# caches the generated corpus across runs). The checked-in seed corpora
# under internal/dos/testdata and internal/storage/testdata replay on
# every plain `go test` run regardless.
FUZZTIME ?= 10s
fuzz-short:
	$(GO) test -run '^$$' -fuzz '^FuzzMetaParse$$' -fuzztime $(FUZZTIME) ./internal/dos/
	$(GO) test -run '^$$' -fuzz '^FuzzEdgesDecode$$' -fuzztime $(FUZZTIME) ./internal/dos/
	$(GO) test -run '^$$' -fuzz '^FuzzVerify$$' -fuzztime $(FUZZTIME) ./internal/dos/
	$(GO) test -run '^$$' -fuzz '^FuzzGroupVarintDecode$$' -fuzztime $(FUZZTIME) ./internal/storage/
	$(GO) test -run '^$$' -fuzz '^FuzzGroupVarintRoundTrip$$' -fuzztime $(FUZZTIME) ./internal/storage/

check: fmt vet race test
