GO ?= go

# Packages whose tests exercise real concurrency; they get a second pass
# under the race detector. tensor covers the parallel GEMM kernels, train
# the batch-prep prefetch pipeline, distributed the replica barrier and
# eviction paths, resilience the checkpoint/rollback machinery, memstore
# the sharded mailbox under concurrent read/push, wal the segmented ingest
# log's interval-sync goroutine against appends, cluster the replication
# sender/receiver goroutines and the router's probe loop against concurrent
# ingest/score traffic (WAL-shipping replication end to end, failover with
# hinted handoff, the repl/probe/promote fault points).
RACE_PKGS = ./internal/parallel/... ./internal/serve/... ./internal/obs/... ./internal/tensor/... ./internal/train/... ./internal/distributed/... ./internal/resilience/... ./internal/load/... ./internal/memstore/... ./internal/wal/... ./internal/cluster/...

# The fault suite: injected NaN gradients with rollback, kill-and-resume
# equivalence (exact and bounded-staleness pipelines), checkpoint-write
# failures, replica death/hang eviction and flap-then-rejoin, dropped
# barrier reports, overload shedding, stale degradation, breaker trips,
# graceful drain, torn mailbox reads, WAL disk faults (short write, fsync
# error, rotate failure, snapshot failure) with read-only degradation and
# kill-at-random-offset recovery, replication stream faults (dropped send,
# suppressed ack) and router probe-timeout/promote faults driving failover
# with hinted handoff — all under the race detector.
FAULT_RE = ^(TestKillAndResume|TestStalenessKillAndResume|TestMailboxConcurrentReadPush|TestNaNRollback|TestRepeatedNaN|TestHealthGivesUp|TestCheckpointWriteFailure|TestInjectedWriteFailures|TestReplicaDeath|TestHungReplica|TestAllReplicasDead|TestErrorReturnJoinsPrefetch|TestGracefulShutdown|TestReplicaRejoins|TestRejoin|TestReportDrop|TestOverload|TestDrainZeroDropped|TestQueueFullDegrades|TestBreaker|TestRetry|TestStaleReplica|TestRateLimit|TestDeadlineExpires|TestInjectedWriteFailureBreaksLog|TestInjectedSyncFailureBreaksLog|TestInjectedRotateFailure|TestWALKillAtRandomOffset|TestWALFaultDegradesReadOnly|TestWALRotateFaultDegradesReadOnly|TestWALSnapshotFaultKeepsServing|TestReplicationFaultPoints|TestRouterProbeTimeoutFaultTriggersFailover|TestRouterFailoverAndHintedHandoff|TestRouterHintOverflowSheds)

.PHONY: check build test vet race benchall faultsmoke chaossmoke stalesmoke walsmoke tracesmoke clean

# check is the tier-1 gate: everything a PR must keep green. Performance is
# not gated here: `bash benchmark/run.sh` is the repo's performance record.
check: vet build test race faultsmoke chaossmoke stalesmoke walsmoke tracesmoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 $(RACE_PKGS)

# faultsmoke proves the recovery paths end to end: the fault-injection test
# suite under -race, then a real checkpointed cascade-train run whose files
# must pass the ckptcheck linter.
faultsmoke:
	$(GO) test -race -count=1 -run '$(FAULT_RE)' ./internal/resilience/... ./internal/distributed/... ./internal/train/... ./internal/serve/... ./internal/load/... ./internal/memstore/... ./internal/wal/... ./internal/cluster/...
	rm -rf /tmp/cascade-faultsmoke-ckpt
	$(GO) run ./cmd/cascade-train -events 800 -epochs 2 -health \
		-checkpoint-dir /tmp/cascade-faultsmoke-ckpt -checkpoint-every 5 > /dev/null
	$(GO) run ./tools/ckptcheck -dir /tmp/cascade-faultsmoke-ckpt
	rm -rf /tmp/cascade-faultsmoke-ckpt

# stalesmoke gates the bounded-staleness pipeline: s=0 twice must agree
# bitwise, s=2 must actually serve stale reads within budget and diverge.
stalesmoke:
	$(GO) test -count=1 -run '^TestStaleSmoke$$' ./internal/train

# chaossmoke drives the deterministic chaos harness end to end: a 10× burst
# against a saturated scoring server must shed-not-collapse, a flapping
# training replica must rejoin from the latest on-disk checkpoint, an
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

# tracesmoke gates the observability plane: one request through a traced
# 2-shard router must yield a single distributed trace-id visible in the
# router's and both shards' Chrome traces once merged (trace propagation +
# clock-offset alignment), and the tracemerge tool's built-in synthetic
# skew/torn-input check must pass. The obs package's own tests (traceparent
# codec, SLO burn math, federation parser, flight-dump naming) ride the
# race pass — ./internal/obs/... is already in RACE_PKGS.
tracesmoke:
	$(GO) test -count=1 -run '^TestTraceSmoke$$' ./internal/cluster
	$(GO) run ./tools/tracemerge -selftest

# benchall runs every benchmark function once: the experiment suite (every
# paper table/figure) and the GEMM / GRU / training-step micro-benchmarks.
benchall:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

clean:
	$(GO) clean ./...
