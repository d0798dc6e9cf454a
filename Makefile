GO ?= go

.PHONY: build test race vet fmt lint hostbench-test matrix capmanifest hotpath experiments check bench bench-diff fuzz cover

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# fmt fails if any file is not gofmt-clean, so regressions can't land.
fmt:
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; \
	fi

# lint runs the repo's own analyzers (internal/xoarlint, `xoarlint -list`
# names them): privilege flow (every hv entry point audits its caller, and
# the audit dominates every mutation), audit logging, sim determinism,
# goroutine hygiene, shard layering, error wrapping and denial counting,
# metric names and hot-path allocations. The same passes run inside
# `go test ./...` via xoarlint_test.go, so this target is the fast, focused
# entry point.
lint:
	$(GO) run ./cmd/xoarlint ./...

# matrix regenerates PRIVMATRIX.json, the privilege matrix privflow derives
# from internal/hv. TestPrivMatrixDrift fails until an hv privilege-surface
# change is reflected here, so the diff always shows the widened surface.
matrix:
	$(GO) run ./cmd/xoarlint -matrix > PRIVMATRIX.json

# capmanifest regenerates the per-shard capability manifests that boot
# profiles load their whitelists from (internal/capability/CAPMANIFEST.json).
# Derived from the privilege matrix crossed with the declared shard roles;
# TestCapManifestDrift fails until a surface change is reflected here.
# Written via a temp file: the generator go:embeds the manifest, so a direct
# `>` redirect would truncate the file before the binary compiles against it.
capmanifest:
	$(GO) run ./cmd/xoarlint -capmanifest > internal/capability/CAPMANIFEST.json.tmp
	mv internal/capability/CAPMANIFEST.json.tmp internal/capability/CAPMANIFEST.json

# hotpath regenerates HOTPATH.json, the hot-path allocation artifact the
# hotpath analyzer derives from //xoarlint:hot annotations: per-root
# reachable functions plus the declared allocs/op budget. TestHotPathDrift
# fails until a data-path change is reflected here, and bench-diff
# cross-checks the budgets against measured -benchmem allocs/op.
hotpath:
	$(GO) run ./cmd/xoarlint -hotpath > HOTPATH.json

# experiments regenerates the *Full data* section of EXPERIMENTS.md, the
# lines between its xoarbench-markdown markers, from `xoarbench -markdown`
# at scale 1.0. It takes about 8s, so it is not part of check; CI's bench
# job writes it to a temp file with EXPERIMENTS_OUT and fails on a diff.
EXPERIMENTS_OUT ?= EXPERIMENTS.md
experiments:
	@gen=$$(mktemp) && trap 'rm -f "$$gen" "$$gen.md"' EXIT && \
	$(GO) run ./cmd/xoarbench -markdown > "$$gen" && \
	awk -v gen="$$gen" ' \
		/^<!-- xoarbench-markdown:end/ { skip = 0 } \
		!skip { print } \
		/^<!-- xoarbench-markdown:begin/ { while ((getline l < gen) > 0) print l; skip = 1; n++ } \
		END { if (n != 1 || skip) { print "EXPERIMENTS.md: want one begin/end pair of xoarbench-markdown markers" > "/dev/stderr"; exit 1 } }' \
		EXPERIMENTS.md > "$$gen.md" && \
	mv "$$gen.md" $(EXPERIMENTS_OUT)

# race runs the full suite under the race detector (the telemetry layer is
# exercised from parallel goroutines in its tests).
race:
	$(GO) test -race ./...

# bench boots the Xoar profile, drives a workload, and emits the telemetry
# snapshot as JSON — the machine-readable counterpart of `xoarbench` — then
# runs the cluster serverless-churn study at artifact scale.
bench:
	$(GO) run ./cmd/xoarbench -metrics -json
	$(GO) run ./cmd/xoarbench -cluster

# bench-diff is the CI benchmark-regression gate: run the gated benchmarks
# once (the sim is deterministic, so one iteration is exact) and compare
# their custom metrics against the checked-in baseline. After an intentional
# performance change, refresh the baseline with:
#   go run ./cmd/benchdiff -baseline BENCH_baseline.json -update bench.out
bench-diff:
	$(GO) test -run '^$$' -bench 'BenchmarkBootPipeline|BenchmarkTable61_Memory|BenchmarkTable62_Boot|BenchmarkFig61_Postmark|BenchmarkDataPath_TxBatching|BenchmarkDataPath_Saturation10G|BenchmarkMicro_GrantMap|BenchmarkMicro_GuestLifecycle|BenchmarkMicro_DeviceLifecycle|BenchmarkMicro_XenStoreWrite|BenchmarkMicro_RingBatchPop|BenchmarkMicro_AuditVerify|BenchmarkMicro_SimEventsPerSec|BenchmarkMicro_SimWakeups|BenchmarkMicro_SimHandoff|BenchmarkMicro_SimContention|BenchmarkClusterChurn|BenchmarkSec_AttackTaxonomy|BenchmarkFig62_Wget|BenchmarkFig63_Restarts|BenchmarkFig64_KernelBuild|BenchmarkFig65_Apache|BenchmarkSec_TCB|BenchmarkSec_Attacks|BenchmarkAblations' -benchtime=1x -benchmem . | tee bench.out
	$(GO) run ./cmd/benchdiff -baseline BENCH_baseline.json -hotpath HOTPATH.json bench.out

# fuzz runs the hypercall-sequence fuzzer against the manifest oracle. CI
# uses the default 60s smoke on every PR and FUZZTIME=10m on the nightly
# schedule; new failing inputs land in internal/attack/testdata/fuzz/ —
# minimize them with attack.Minimize and check in the reproducer.
FUZZTIME ?= 60s
fuzz:
	$(GO) test -fuzz=FuzzHypercallSequence -fuzztime=$(FUZZTIME) ./internal/attack

# cover measures enforcement-path coverage: how much of internal/hv's
# statement space the hv unit tests, the seceval probes, and the attack
# suite actually execute, plus the same view of internal/seceval itself.
# The floor is just under the merge-time ratio (94.0% when the gate was
# introduced): falling below it means new privileged surface landed in hv
# without adversarial tests reaching it.
HV_COVER_FLOOR ?= 93.0
cover:
	$(GO) test -coverprofile=cover_hv.out -coverpkg=./internal/hv ./internal/hv/... ./internal/seceval/... ./internal/attack/...
	$(GO) test -coverprofile=cover_seceval.out -coverpkg=./internal/seceval ./internal/seceval/... ./internal/attack/...
	@total=$$($(GO) tool cover -func=cover_hv.out | awk '/^total:/ {gsub("%","",$$3); print $$3}'); \
	echo "internal/hv coverage: $$total% (floor: $(HV_COVER_FLOOR)%)"; \
	if awk -v t="$$total" -v f="$(HV_COVER_FLOOR)" 'BEGIN { exit !(t+0 < f+0) }'; then \
		echo "internal/hv coverage $$total% is below the $(HV_COVER_FLOOR)% floor"; exit 1; \
	fi

# hostbench-test runs hostbench's own tests: every workload passes its
# checks and repeats its digest (TestSeedCheck), and the module table names
# every sim process (TestModuleTableCoversWorkloads). hostbench is its own Go
# module, so the root `go test ./...` does not run them.
hostbench-test:
	cd hostbench && $(GO) test ./...

# check is the tier-1 gate: build + tests, plus vet, gofmt, xoarlint and
# hostbench's tests as guards.
check: build test vet fmt lint hostbench-test
