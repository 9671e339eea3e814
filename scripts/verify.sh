#!/bin/sh
# Tier-1 verification: build, vet, the project's own invariant analyzers
# (dashdb-lint), the full test suite, and a race-detector pass over every
# package. Set DASHDB_FUZZ=1 to add a 10-second smoke run of each fuzz
# target (SQL front end totality, encoder round-trip identity, bulk-append
# atomicity under racing truncates, shard RPC frame decoding, the shared
# value codec).
set -eux

cd "$(dirname "$0")/.."

go build ./...
go vet ./...
# The full fourteen-analyzer suite, including the dataflow checkers
# (mustrelease, lockpair) and the whole-program hotpath call graph
# (hotpathcg).
go run ./cmd/dashdb-lint ./...
# Budget gate: one full-repo analysis-only run must stay inside the
# (generous) wall-time budget, so CFG/dataflow never makes this loop
# painful.
DASHDB_LINT_BUDGET=1 go test -run TestLintBudget -count=1 ./internal/lint/
go test ./...
go test -race ./...

# Low-memory gate: force the external sort / Grace join / group-by spill
# paths for every query in the engine suites by capping both heaps at
# 1 MiB, and re-run the spill-parity property tests under race.
DASHDB_SORTHEAP=1MB DASHDB_HASHHEAP=1MB go test -race -count=1 ./internal/core/ ./internal/exec/ ./driver/

# Writers-active gate: the snapshot-isolation property suites — trickle
# INSERTs, bulk flushes, TRUNCATE and DROP racing the full query mix at
# dop 1/2/8 — re-run under the race detector.
go test -race -count=1 \
	-run 'TestSnapshot|TestPin|TestCleanup|TestDrainOrder|TestReleaseIsExact|TestConcurrentPinPublish|TestTruncateDrains|TestConcurrentIngest|TestTruncateRacing|TestDropRacing|TestMultiRowInsert|TestBulk' \
	./internal/snapshot/ ./internal/columnar/ ./internal/core/ ./. ./driver/

if [ "${DASHDB_FUZZ:-0}" = "1" ]; then
	go test -run=NONE -fuzz=FuzzParseSQL -fuzztime=10s ./internal/sql/
	go test -run=NONE -fuzz=FuzzEncodingRoundTrip -fuzztime=10s ./internal/encoding/
	go test -run=NONE -fuzz=FuzzBulkAppend -fuzztime=10s ./internal/columnar/
	go test -run=NONE -fuzz=FuzzShuffleFrame -fuzztime=10s ./internal/shardrpc/
	go test -run=NONE -fuzz=FuzzValueCodec -fuzztime=10s ./internal/types/
fi
