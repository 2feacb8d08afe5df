# Developer entry points. `make check` is the PR gate: gofmt, vet,
# build, full test suite under the race detector.

GO ?= go

.PHONY: all check tracked-sources fmt vet build test race examples bench bench-avc bench-ablation bench-smoke bench-json chaos reload-stress fleet-stress fleet-persist-stress fleet-scale parallel-stress resilience-stress matcher-diff verify perfbench-build profile

all: check

check: tracked-sources fmt vet build race examples chaos reload-stress fleet-stress fleet-persist-stress parallel-stress resilience-stress matcher-diff verify perfbench-build bench-smoke

# Every Go source must be tracked by git: an over-broad .gitignore line
# can hide a package from commits while local builds still pass.
tracked-sources:
	@ignored=$$(git ls-files --others --ignored --exclude-standard -- '*.go'); \
	if [ -n "$$ignored" ]; then echo "Go sources ignored by .gitignore:"; echo "$$ignored"; exit 1; fi

# Every Go source must be gofmt-clean.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "Go sources not gofmt-clean:"; echo "$$unformatted"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Every example program runs to completion and exits 0. They are the
# scenarios README points readers at, and no test executes them; a
# failing one prints its output.
examples:
	@for d in examples/*/; do \
		echo "go run ./$$d"; \
		out=$$($(GO) run ./$$d 2>&1) || { echo "$$out"; exit 1; }; \
	done

# Chaos suite: random fault plans (fixed seeds, deterministic replay)
# through sensors, SDS queue, transmitter, and CAN bus under the race
# detector, plus the resilience unit tests and the no-fault zero-alloc
# guard.
chaos:
	$(GO) test -race -count=1 -run 'TestChaos|AllocFree' .
	$(GO) test -race -count=1 ./internal/faults ./internal/sds ./internal/vehicle

# Reload×chaos suite: random policy reloads interleaved with random
# fault plans, heartbeat lapses, and event deliveries — the shadow-model
# property tests plus the concurrent reload/delivery/watchdog hammer —
# and the one-state race test: deliveries, compiled reloads, dark and
# clean heartbeats, break-glass and SACKfs state writes race, and at
# each barrier the enforced policy must be the last committed one, a
# pinned pipeline must hold the failsafe, and the enforced state must be
# the reported one and declared by the live policy — and the concurrent
# reload diff test: two reloaders race over distinct revisions, and
# each returned report must be the reference diff from the policy its
# commit replaced (a reload diffs before it takes the writer lock and
# recomputes if another committed meanwhile) — all under the race
# detector.
reload-stress:
	$(GO) test -race -count=1 -run 'TestReload|TestOneStateUnderConcurrentWriters' .
	$(GO) test -race -count=1 -run 'TestReload' ./internal/core ./internal/policy

# Fleet convergence property suite: 1000 vehicles behind random
# per-vehicle transport fault plans (drops, stalls, duplicates,
# corruption) must converge to every pushed bundle generation with a
# ledger-exact decision-log account — degraded (failsafe-pinned)
# vehicles included — plus the fleet unit tests, all under the race
# detector.
fleet-stress:
	$(GO) test -race -count=1 -run 'TestFleet' .
	$(GO) test -race -count=1 ./internal/fleet ./cmd/fleetd

# Durable control-plane suite: the WAL+snapshot store's torn-tail and
# compaction tests, bundle signing and keyring rotation, and the
# kill ‑9/restart property tests — fleetd must replay to the exact
# pre-crash registry, generation counters, and per-vehicle
# accepted+dropped==emitted ledger, with staged rollouts and signatures
# surviving the restart — all under the race detector. TestPersist also
# selects the live-vs-replay races (uploads racing drains, then a
# restart; one batch uploaded twice at once) and the replay of a store
# written by an earlier server (testdata/legacy-store).
fleet-persist-stress:
	$(GO) test -race -count=1 ./internal/store ./internal/sign
	$(GO) test -race -count=1 -run 'TestPersist|TestRollout|TestAgentRejects|TestAgentKeyRotation|TestSigReject|TestSignedBundle|TestHTTPClientVerifies' ./internal/fleet
	$(GO) test -race -count=1 -run 'TestNewServerDurableSignedRestart' ./cmd/fleetd

# 100k-vehicle scale harness: goroutine-FSM vehicles against the
# control plane — publish fan-out over parked long-polls and
# decision-log ingestion throughput. Curves land in EXPERIMENTS.md
# ("Fleet control plane at scale").
fleet-scale:
	$(GO) test -race -count=1 -run 'TestFleetScaleSmoke' ./internal/fleet
	$(GO) test -run '^$$' -bench 'BenchmarkFleetScale' -benchtime 3x ./internal/fleet

# Resilience×faults chaos suite: the breaker, retry and bulkhead unit
# tests (virtual clocks, no real sleeps), the fleet agent's tests (its
# one sync round: backoff schedule, cached-bundle fallback, breaker
# short-circuits, an attempt that outlives its request deadline never
# rolling the vehicle back) plus the system-scope crosses — a flapping
# control plane must never block the decision loop, and a flooding
# vehicle group must not move another group's convergence schedule —
# all under the race detector.
resilience-stress:
	$(GO) test -race -count=1 ./internal/resilience
	$(GO) test -race -count=1 -run 'TestAgent' ./internal/fleet
	$(GO) test -race -count=1 -run 'TestChaosFlappingControlPlaneNeverBlocksDecisions|TestChaosFloodedGroupDoesNotStarveQuietGroup|TestResilience' .

# Full benchmark sweep: every paper row (Tables II/III, Fig. 3(a)/(b),
# the §IV-B event latency and no-LSM rows, from bench_test.go over
# internal/lmbench's op lists) and the ablations, plus the 100k-vehicle
# control-plane scale curves.
bench: fleet-scale
	$(GO) test -run '^$$' -bench . -benchmem .

# AVC comparison: cached covered-path check vs cache-ablated check vs raw
# rule-set Decide. The cached line should be orders of magnitude faster.
# one-off-denials (a distinct denied key per op) must allocate nothing:
# the AVC admits a denial only on its second miss in an epoch.
bench-avc:
	$(GO) test -run '^$$' -bench 'BenchmarkAVC' -benchmem .

# Matcher ablation: glob-walk oracle vs trie-compiled matcher, AVC off
# and on, plus the raw one-walk Evaluate (coverage and verdict together).
bench-ablation:
	$(GO) test -run '^$$' -bench 'BenchmarkMatcherAblation' -benchmem .

# Parallel decision stress: checker goroutines hammering the lock-free
# fast path while events, reloads, break-glass, and pipeline
# degradation fire concurrently — the cached==uncached trace property
# under parallelism, with the race detector watching the snapshots —
# plus lock-free fd reads against in-place descriptor-slot updates,
# table growth, forks and NumFDs on one task, plus the dentry cache:
# random mutation sequences must resolve exactly as an uncached walk,
# and lookups racing renames and unlinks must never see a mapping a
# finished mutation removed, plus the audit log: writers appending from
# several call depths (so several shards) against an exporter draining
# through Since must leave every shard's run sorted, each writer's
# records in append order and the ledgers exact, plus the AVC's table
# growth: stores doubling the table several times against Advance and
# probes must only ever serve a key its own verdict under the prober's
# token.
parallel-stress:
	$(GO) test -race -count=1 -run 'TestParallelDecisionStress' .
	$(GO) test -race -count=1 -run 'TestConcurrentGrowth' ./internal/avc
	$(GO) test -race -count=1 -run 'TestFDTableConcurrentInPlace' ./internal/kernel
	$(GO) test -race -count=1 -run 'TestDcache' ./internal/vfs
	$(GO) test -race -count=1 -run 'TestAuditMerge' ./internal/lsm

# Differential fuzz: random policies and access keys must draw identical
# verdicts (and identical deciding rules) from the trie-compiled matcher
# and the glob-walk reference oracle, at the rule-set level (including
# the >1024-rule spill block), for every state of a compiled policy
# (views over its one shared trie, whose covered answer must equal the
# coverage walk), through AppArmor's decision path against a linear
# scan of its profile rules, and through the public System API; and
# every denial's audit detail, served from its rule set's memo, must
# equal a fresh format of the oracle's deciding rule, in SACK (every
# state, reloads) and AppArmor (both modes, profile rewrites), with
# concurrent fillers.
matcher-diff:
	$(GO) test -race -count=1 -run 'TestMatcher.*Differential' ./internal/policy
	$(GO) test -race -count=1 -run 'TestDenialDetailMemo' ./internal/core
	$(GO) test -race -count=1 -run 'TestAppArmorMatcherDifferential|TestAppArmorDenialDetailMemo' ./internal/apparmor
	$(GO) test -race -count=1 -run 'TestMatcherSystemDifferential|TestCachedEqualsUncachedTrace' .

# Policy verification suite: the symbolic explorer's unit tests and
# seed-corpus fuzz (every reported witness must replay on the live rule
# set; a brute-force oracle over a concrete probe alphabet must find
# nothing the explorer missed), the exact glob-intersection engine, the
# pack-wide baseline gate (every shipped policy satisfies
# policies/invariants/baseline.inv), the witness-replay differential
# against a booted system, the fleetd publish-time gate, and the
# validator's conflict pass against its plain quadratic reference.
verify:
	$(GO) test -count=1 ./internal/verify ./internal/glob
	$(GO) test -count=1 -run 'TestValidateMatchesReference|TestConflict' ./internal/policy
	$(GO) test -count=1 -run 'TestVerifyPackAgainstBaseline|TestVerifyWitnessReplaysAsLiveAllow' .
	$(GO) test -count=1 -run 'TestPublishGate|TestPublishBundleEmbeddedInvariants' ./internal/fleet
	$(GO) test -count=1 -run 'TestVerify|TestBundlePushWithInvariants' ./cmd/sackctl

# The benchmark harness is its own module (perfbench/go.mod) and builds
# against this module's internals; vet it so an API change here cannot
# break it unnoticed.
perfbench-build:
	cd perfbench && $(GO) vet ./...

# Benchmark smoke: one iteration of every paper-row benchmark (each
# Table II/III, Fig. 3(a)/(b), event-latency and no-LSM cell; the
# event-latency cell fails if a write misses its transition), of every
# BenchmarkStackingDepth cell (depths 0-4, whose boots are the Table II
# configurations plus SELinux at depth 4), of the
# scalability sweep and of every BenchmarkAVC cell (cached, uncached,
# both pass-through shapes, one-off denials, raw Decide) and of every
# BenchmarkPolicyLoad cell (the Fig. 2 pack policy, 500 rules, 64
# states, a 16-application subject-scoped policy) and every
# BenchmarkReload cell (unchanged source, the same source recompiled,
# one rule changed, all rules renamed, a 64-state revision) so those
# paths compile and run on every PR without benchmark-length runtimes,
# plus the uncached-latency fence (trie must stay well ahead of the glob-
# walk oracle and under its absolute budget), the compile-footprint
# fence (allocations per policy.Load of the 64-state and 500-rule
# generated policies: one trie per policy, not per state), the
# unchanged-source reload fence (a Reload of the installed text reuses
# the installed artifact: at most 64 allocations for 500 rules, still
# one generation, one "no changes" record and one AVC epoch) and the
# wire-codec fences (bytes/record ≥5× under JSON, zero-alloc decode),
# plus the policy
# validator's allocation fence on a benchmark-sized policy, the
# syscall path's allocation fence (an open allocates only its file, a
# repeated stat or denial nothing, a first denial after a transition
# nothing either, as it is not yet admitted into the AVC), the audit
# drain's zero-alloc fence (Appends from two call depths, so every cut
# merges two runs), the sampled hook-metrics exactness test and the
# AVC growth tests (a cache starts at 64 slots, doubles exactly when a
# quarter of its slots is filled, never past its cap, and carries only
# the current epoch's entries, re-indexed, across a doubling).
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkTable2|BenchmarkTable3|BenchmarkFig3|BenchmarkEventLatency|BenchmarkNoLSM|BenchmarkStackingDepth' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkParallelDecision/sack-covered/goroutines=(1|16)$$' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkAVC' -benchtime 1x .
	$(GO) test -run '^$$' -bench 'BenchmarkPolicyLoad' -benchtime 1x . ./internal/policy
	$(GO) test -run '^$$' -bench 'BenchmarkReload' -benchtime 1x -benchmem .
	$(GO) test -count=1 -run 'TestUncachedLatencyGuard|TestMatcherZeroAllocUncached|TestSyscallAllocGuard|TestPolicyLoadAllocGuard|TestReloadUnchangedSourceAllocGuard' -v .
	$(GO) test -count=1 -run 'TestBytesPerRecordGuard|TestDecodeAllocGuard' -v ./internal/fleet/wire
	$(GO) test -count=1 -run 'TestValidateAllocGuard' -v ./internal/policy
	$(GO) test -count=1 -run 'TestAuditFlushZeroAllocs|TestMetricsSampledCounts' -v ./internal/lsm
	$(GO) test -count=1 -run 'TestSizeRoundsUpToPowerOfTwo|TestGrowth' -v ./internal/avc

# Machine-readable fleet perf snapshot: runs the compact 1k-vehicle
# harness plus the wire-codec micro-measurements and writes
# BENCH_fleet.json (fan-out vehicles/s, ingest records/s, bytes/record,
# allocs/record) at the repo root, so future PRs can diff against it.
bench-json:
	BENCH_JSON_OUT=$(CURDIR)/BENCH_fleet.json $(GO) test -count=1 -run 'TestEmitBenchJSON' -v ./internal/fleet

# Parallel benchmark under the mutex/block/CPU profilers. Artifacts land
# in bench/; EXPERIMENTS.md ("Multi-core scalability") explains how to
# read them. The mutex profile is the acceptance gate: the covered-path
# allow fast path must show zero mutex contention.
profile:
	mkdir -p bench
	$(GO) test -run '^$$' -bench 'BenchmarkParallelDecision/sack-covered/goroutines=16$$' \
		-benchtime 200000x -mutexprofile bench/mutex.out -blockprofile bench/block.out \
		-cpuprofile bench/cpu.out -o bench/sack.test .
	$(GO) tool pprof -top -nodecount 15 bench/sack.test bench/mutex.out
	$(GO) tool pprof -top -nodecount 15 bench/sack.test bench/cpu.out
