#!/usr/bin/env sh
# ci.sh — the repo's full check gate.
#
#   ./ci.sh            run everything
#
# Stages:
#   1. go build ./...              everything compiles (examples included)
#   2. go vet ./...                stock toolchain vet
#   3. go test -race -shuffle=on   unit + integration tests under the race
#      ./...                       detector with shuffled test order (the
#                                  Stream's per-chunk recovery fan-out and
#                                  its Process adapter in internal/core are
#                                  exercised by the stress suite and the
#                                  deterministic cancellation table, with
#                                  goroutine-leak checks, and the engine's
#                                  allocation and goroutine bound is
#                                  TestProcessSliceAllocs; shuffling flushes
#                                  out inter-test ordering assumptions);
#                                  then the serving layer again, uncached:
#                                  its drain, overload-shed,
#                                  restart-persistence, framing-invariance
#                                  (TestTenantFramingInvariance) and
#                                  failed-request
#                                  (TestFailedRequestLeavesNoTrace) tests
#   4. fuzz seed smoke             every Fuzz* target replayed over its
#                                  checked-in seed corpus plus a short live
#                                  fuzzing burst (quality + predictor
#                                  adversarial-input hardening, the
#                                  /v1/invoke handler fuzz, the
#                                  PUT /v1/tenants/{id}/state snapshot
#                                  import fuzz, and the corpus.json scanner
#                                  against encoding/json)
#   5. bench smoke                 the hot-path benchmark suite at
#                                  -benchtime=100x -benchmem: catches batch
#                                  kernels that stop compiling, panic, or
#                                  start allocating, without paying for a
#                                  statistically meaningful timing run
#   6. /metrics exposition smoke   the Prometheus text endpoint golden test
#                                  plus a live httptest scrape parsed by
#                                  obs.ValidateExposition: a malformed
#                                  exposition (duplicate family, bad sample,
#                                  NaN) fails CI before a scraper sees it
#   7. rumba-pkg smoke             build a kernel package from a fast fft
#                                  training run, validate it (checksums +
#                                  corpus replay vs TOQ) and run a short
#                                  steady-shape conformance pass against an
#                                  in-process rumba-serve
#   8. rumba-tune smoke            tiny autotuner sweep over the fft package
#                                  from stage 7, then the emitted frontier
#                                  artifact must load into rumba-serve
#                                  (-frontier -dry-run): the tune -> serve
#                                  hand-off stays wired end to end
#   9. bench compare gate          rumba-bench -compare of the checked-in
#                                  BENCH_hotpath.json against a fresh smoke
#                                  run at a generous 75% threshold: catches
#                                  catastrophic hot-path regressions and
#                                  baseline format drift
#  10. cluster smoke               boot a 3-node in-process cluster behind
#                                  the consistent-hash router, kill a node
#                                  and assert rerouted invokes succeed, then
#                                  drain a node through a planned rebalance
#                                  and assert the migrated tenant's tuner and
#                                  drift state survived, plus a conformance
#                                  round through the router's front door;
#                                  the observability pass stitches a failover
#                                  trace across router + survivor, pages a
#                                  TOQ-violating tenant through the cluster
#                                  alert view, and scrapes the router's
#                                  federated /metrics through the strict
#                                  exposition parser; it also checks that a
#                                  burn-rate series fed once per request
#                                  still sees its fast window, that a traced
#                                  request stays within its span and
#                                  allocation bound (one recovery span per
#                                  chunk, not per fired element), and the
#                                  chunk-level recovery span of a served
#                                  trace, fixed and degraded
#  11. coverage floors             statement coverage of the hardened runtime
#                                  (internal/core), the observability layer
#                                  (internal/obs, internal/trace), the
#                                  serving layer, the kernel-package layer
#                                  (internal/pkg, internal/bundle), the
#                                  cluster layer (internal/cluster), the
#                                  autotuner (internal/tune) and the
#                                  static-analysis engine (internal/analysis)
#                                  must not regress below the floors
#  12. benchmark module            the nested benchmark/ Go module (its own
#                                  go.mod, so ./... above never reaches it):
#                                  vet, its smoke/compare tests, and rumba-vet
#                                  over it against the same baseline — an
#                                  internal API change that breaks the
#                                  benchmark fails here, not in a full run
#  13. rumba-vet ./...             Rumba's own static-analysis suite:
#                                  purity, determinism, floatcmp, kernelsig,
#                                  concurrency, approxflow, hotpath,
#                                  directive (see DESIGN.md, "Static
#                                  analysis & safety"); fails on any
#                                  unsuppressed warning-or-worse finding not
#                                  recorded in vet-baseline.json, and writes
#                                  the SARIF artifact rumba-vet.sarif for
#                                  code-scanning upload.

set -eu
cd "$(dirname "$0")"

echo "==> go build ./..."
go build ./...
# The serving daemon and its cluster router must stay buildable on their own
# (they are the deployable artifacts; ./... would mask a main-package-only
# breakage message).
go build ./cmd/rumba-serve
go build ./cmd/rumba-router

echo "==> go vet ./..."
go vet ./...

echo "==> go test -race -shuffle=on ./..."
go test -race -shuffle=on ./...

echo "==> serving layer under -race (drain, overload-shed, restart-persistence, framing-invariance and failed-request suite)"
go test -race -count=1 ./internal/server/

echo "==> fuzz seeds smoke"
go test -run='^Fuzz' ./internal/quality/ ./internal/predictor/ ./internal/nn/ ./internal/analysis/ ./internal/server/ ./internal/pkg/
go test -run='^$' -fuzz='^FuzzElementError$' -fuzztime=10s ./internal/quality/
go test -run='^$' -fuzz='^FuzzTreePredictError$' -fuzztime=10s ./internal/predictor/
go test -run='^$' -fuzz='^FuzzParseDirective$' -fuzztime=10s ./internal/analysis/
go test -run='^$' -fuzz='^FuzzHandleInvoke$' -fuzztime=10s ./internal/server/
go test -run='^$' -fuzz='^FuzzTenantStateImport$' -fuzztime=10s ./internal/server/
go test -run='^$' -fuzz='^FuzzDecodeCorpus$' -fuzztime=10s ./internal/pkg/

echo "==> bench smoke (-benchtime=100x -benchmem)"
go test -run '^$' -bench 'Forward|Predict|Stream' -benchtime=100x -benchmem ./internal/bench/

echo "==> /metrics exposition smoke (golden render + live scrape parse)"
go test -run 'TestWritePrometheus|TestValidateExposition' -count=1 ./internal/obs/
go test -run 'TestMetricsPrometheus' -count=1 ./internal/server/

echo "==> rumba-pkg smoke (build -> validate -> conform, in-process serve)"
pkg_tmp=$(mktemp -d)
trap 'rm -rf "$pkg_tmp"' EXIT
go run ./cmd/rumba-pkg build -benchmark fft -train 400 -epochs 10 -corpus-n 60 -toq 0.5 -out "$pkg_tmp"
go run ./cmd/rumba-pkg validate "$pkg_tmp/fft-0.1.0"
go run ./cmd/rumba-pkg conform -shape steady -requests 12 -batch 8 -out "$pkg_tmp/report.json" "$pkg_tmp/fft-0.1.0"
grep -q '"pass": true' "$pkg_tmp/report.json" || { echo "ci: conformance report did not pass" >&2; exit 1; }

echo "==> rumba-tune smoke (tiny sweep on the fft package -> frontier loads into rumba-serve)"
go run ./cmd/rumba-tune -benchtime 5ms -max-corpus 32 -batches 1,64 -lutbits 8,10 \
    -out "$pkg_tmp/frontier.json" "$pkg_tmp/fft-0.1.0"
go run ./cmd/rumba-serve -packages "$pkg_tmp" -frontier "$pkg_tmp/frontier.json" -dry-run

echo "==> bench compare gate (checked-in hotpath baseline vs a fresh run, 75% threshold)"
# The generous threshold absorbs machine-to-machine and load noise in the
# wall-clock numbers; what this catches is a kernel that got catastrophically
# slower (or a -compare/baseline format drift). The checked-in baseline is
# restored afterwards — regenerating it is a deliberate act, not a CI side
# effect.
if [ -f BENCH_hotpath.json ]; then
    cp BENCH_hotpath.json "$pkg_tmp/hotpath-baseline.json"
    go run ./cmd/rumba-bench -exp hotpath > /dev/null
    cp BENCH_hotpath.json "$pkg_tmp/hotpath-new.json"
    cp "$pkg_tmp/hotpath-baseline.json" BENCH_hotpath.json
    go run ./cmd/rumba-bench -compare -compare-threshold 75 \
        "$pkg_tmp/hotpath-baseline.json" "$pkg_tmp/hotpath-new.json"
fi

echo "==> cluster smoke (3-node harness + router: kill-a-node failover, rebalance state handoff, conformance through the router)"
go test -count=1 -run 'TestClusterKillNodeLosesNoTenant|TestClusterDriftStateSurvivesPlannedDrain|TestClusterRebalancePreservesTunerAndDriftState|TestClusterConformanceRound' ./internal/cluster/

echo "==> cluster observability smoke (cross-node trace stitch, SLO burn-rate paging, federated /metrics through the strict parser, per-request SLO feeding, traced-request bounds, chunk-level recovery spans)"
go test -count=1 -run 'TestClusterStitchedFailoverTrace|TestClusterSLOAlertsAndNodeDeath|TestClusterFederatedMetricsRoundTrip' ./internal/cluster/
go test -count=1 -run 'TestPerRequestFeedingKeepsFastWindow' ./internal/slo/
go test -count=1 -run 'TestTracedProcessSliceBounds' ./internal/core/
go test -count=1 -run 'TestTraceEndToEnd' ./internal/server/

echo "==> coverage floors (internal/core >= 85%, internal/obs >= 85%, internal/trace >= 85%, internal/server >= 80%, internal/analysis >= 80%, internal/pkg >= 85%, internal/bundle >= 85%, internal/cluster >= 85%, internal/tune >= 85%, internal/slo >= 85%)"
check_cover() {
    pkg="$1"
    floor="$2"
    line=$(go test -cover "$pkg" | tail -n 1)
    pct=$(echo "$line" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p')
    if [ -z "$pct" ]; then
        echo "ci: could not parse coverage for $pkg: $line" >&2
        exit 1
    fi
    ok=$(awk -v p="$pct" -v f="$floor" 'BEGIN { print (p >= f) ? 1 : 0 }')
    if [ "$ok" != 1 ]; then
        echo "ci: $pkg coverage $pct% is below the $floor% floor" >&2
        exit 1
    fi
    echo "    $pkg: $pct% (floor $floor%)"
}
check_cover ./internal/core/ 85
check_cover ./internal/obs/ 85
check_cover ./internal/trace/ 85
check_cover ./internal/server/ 80
check_cover ./internal/analysis/ 80
check_cover ./internal/pkg/ 85
check_cover ./internal/pkg/conformance/ 85
check_cover ./internal/bundle/ 85
check_cover ./internal/cluster/ 85
check_cover ./internal/tune/ 85
check_cover ./internal/slo/ 85

echo "==> benchmark module (vet, tests, rumba-vet)"
(cd benchmark && go vet ./... && go test ./... && go run rumba/cmd/rumba-vet -fail-on warning -baseline ../vet-baseline.json ./...)

echo "==> rumba-vet ./... (baseline-gated, SARIF artifact at rumba-vet.sarif)"
go run ./cmd/rumba-vet -fail-on warning -baseline vet-baseline.json ./...
go run ./cmd/rumba-vet -sarif -baseline vet-baseline.json ./... > rumba-vet.sarif

echo "ci: all checks passed"
