GO ?= go

# Packages whose tests exercise real concurrency; they get a second pass
# under the race detector. tensor covers the parallel GEMM kernels, train
# the batch-prep prefetch pipeline, resilience the checkpoint/rollback
# machinery, memstore the sharded mailbox under concurrent read/push, wal
# the segmented ingest log's interval-sync goroutine against appends,
# cluster the replication sender/receiver goroutines and the router's probe
# loop against concurrent ingest/score traffic (WAL-shipping replication end
# to end, failover with hinted handoff, the repl/probe/promote fault
# points). Every fault-injection test lives in one of these packages, so the
# race pass is also the fault suite: NaN rollback, kill-and-resume, checkpoint
# write failures, overload shedding, breaker trips, graceful drain, WAL disk
# faults, replication and probe faults.
RACE_PKGS = ./internal/parallel/... ./internal/serve/... ./internal/obs/... ./internal/tensor/... ./internal/train/... ./internal/resilience/... ./internal/load/... ./internal/memstore/... ./internal/wal/... ./internal/cluster/...

.PHONY: check fmt build test vet race fuzzsmoke benchall faultsmoke chaossmoke walsmoke tracesmoke clean

# check is the tier-1 gate: everything a PR must keep green — gofmt-clean
# sources, vet, build, tests (once plain, once under -race), a short fuzz of
# each byte decoder, and the checkpoint/chaos/WAL/trace smokes. Performance
# is not gated here: `bash benchmark/run.sh` is the repo's performance
# record.
check: fmt vet build test race fuzzsmoke faultsmoke chaossmoke walsmoke tracesmoke

# fmt fails when any Go file is not gofmt-formatted, listing the offenders.
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# fuzzsmoke gives every fuzz target a short run beyond its seed corpus (the
# seeds themselves ride test). go test -fuzz takes one target per package
# invocation, hence one line each.
fuzzsmoke:
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime 2s -parallel 2 ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzReadBinary$$' -fuzztime 2s -parallel 2 ./internal/graph
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeFrame$$' -fuzztime 2s -parallel 2 ./internal/wal
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeEventBatch$$' -fuzztime 2s -parallel 2 ./internal/serve
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeSnapshot$$' -fuzztime 2s -parallel 2 ./internal/resilience

# faultsmoke proves checkpointing end to end: a real checkpointed
# cascade-train run whose files must pass the ckptcheck linter (the
# fault-injection tests themselves ride race).
faultsmoke:
	rm -rf /tmp/cascade-faultsmoke-ckpt
	$(GO) run ./cmd/cascade-train -events 800 -epochs 2 -health \
		-checkpoint-dir /tmp/cascade-faultsmoke-ckpt -checkpoint-every 5 > /dev/null
	$(GO) run ./tools/ckptcheck -dir /tmp/cascade-faultsmoke-ckpt
	rm -rf /tmp/cascade-faultsmoke-ckpt

# chaossmoke drives the deterministic chaos harness end to end: a 10× burst
# against a saturated scoring server must shed-not-collapse, an
# fsync-faulted WAL must degrade to read-only with zero acked-but-lost
# events, a SIGKILLed cascade-serve must recover bitwise from its WAL, and a
# SIGKILLed replicated primary behind cascade-router must fail over to its
# standby with every hinted batch drained and zero acked-but-lost.
chaossmoke:
	$(GO) run ./tools/chaos -scenario all

# walsmoke runs the walcheck linter's selftest over clean/torn/corrupt logs
# (the wal package's own tests ride test and race).
walsmoke:
	$(GO) run ./tools/walcheck -selftest

# tracesmoke runs the tracemerge tool's built-in synthetic skew/torn-input
# check. TestTraceSmoke (one request through a traced 2-shard router must
# yield a single trace-id across all three Chrome traces once merged) and
# the obs package's own tests ride test and race — ./internal/cluster/...
# and ./internal/obs/... are in RACE_PKGS.
tracesmoke:
	$(GO) run ./tools/tracemerge -selftest

# benchall runs every benchmark function once: the experiment suite (every
# paper table/figure) and the GEMM / GRU / training-step micro-benchmarks.
benchall:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

clean:
	$(GO) clean ./...
