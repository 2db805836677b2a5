#!/usr/bin/env bash
# Repo CI gate: formatting, lints, and the full test suite.
#
#   scripts/ci.sh          # run everything
#
# Mirrors what reviewers run locally; keep it green before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> no build artifacts tracked in git"
if git ls-files | grep -q '^target/'; then
    echo "error: build artifacts under target/ are tracked; run: git rm -r --cached target/" >&2
    git ls-files | grep '^target/' | head >&2
    exit 1
fi

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Doc warnings are errors: an intra-doc link to a deleted or private
# item fails here instead of dangling in the rendered docs.
echo "==> cargo doc --workspace --no-deps (warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The benchmark is a package of its own that compiles against the
# workspace crates' public items, so an API change must break here,
# not first when the benchmark runs. Building it may add dependency
# edges to its lock file; refreshing that lock is a change to the
# benchmark itself, so the step restores it, from a trap so that an
# interrupted or failed check restores it too.
echo "==> cargo check benchmark/"
bench_lock="$(mktemp)"
cp benchmark/Cargo.lock "$bench_lock"
restore_bench_lock() { cp "$bench_lock" benchmark/Cargo.lock; rm -f "$bench_lock"; }
trap restore_bench_lock EXIT
cargo check --offline --manifest-path benchmark/Cargo.toml
restore_bench_lock
trap - EXIT

echo "==> cargo build --release --workspace"
# --workspace: the table2 gates below run crates/bench's table2
# binary, which a root-package build would leave stale.
cargo build --release --workspace

echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Tests that start `xrta serve` processes must stop them: a daemon left
# behind outlives the run. Tests start the binary by its absolute
# target/ path; the smokes below use ./target/release/xrta, which the
# pattern never matches.
no_leftover_daemons() {
    local pattern="$PWD/target/[a-z]*/xrta serve"
    if pgrep -f "$pattern" > /dev/null; then
        echo "error: $1 left xrta serve daemons running:" >&2
        pgrep -af "$pattern" >&2
        exit 1
    fi
}
echo "==> no xrta serve daemon left by the tests"
no_leftover_daemons "cargo test --workspace"

# The degradation suite exists to prove budgets terminate runs; a hang
# here is itself a bug, so give the step a hard wall-clock cap.
echo "==> budget/degradation tests under step timeout"
timeout 300 cargo test -q --test degradation

# Replay the regression corpus: every shrunk reproducer in
# netlists/corpus/ must stay clean through the full check matrix.
echo "==> regression corpus replay"
timeout 300 cargo test -q --release --test corpus

# Differential fuzz smoke: random circuits through every engine
# configuration against the exhaustive oracle. The time cap keeps the
# step bounded on slow machines; the exit code is 1 on any oracle
# disagreement.
echo "==> xrta fuzz smoke"
./target/release/xrta fuzz --seeds 64 --max-inputs 6 --time-cap 120 \
    --corpus /tmp/xrta-ci-corpus-$$
rm -rf "/tmp/xrta-ci-corpus-$$"

# ECO smoke: seeded edit sequences through the incremental-vs-scratch
# differential — after every edit, a warm fingerprint-keyed cone cache
# must compose the byte-identical report a cold analysis produces. The
# exit code is 1 on any divergence (shrunk pairs land in the corpus dir).
echo "==> xrta fuzz --edits smoke (ECO differential)"
./target/release/xrta fuzz --edits 64 --max-inputs 6 --time-cap 120 \
    --corpus /tmp/xrta-ci-eco-$$
rm -rf "/tmp/xrta-ci-eco-$$"

# Resynthesis smoke: generate the adder family, restructure add8, and
# require verified improvement plus a byte-stable second run (the pass
# loop is a fixpoint: resynthesizing its own output changes nothing).
# A small differential fuzz pass guards the rewrite engine itself.
echo "==> resynthesis smoke: adder family, verified gain, fixpoint"
rdir="/tmp/xrta-ci-resynth-$$"
mkdir -p "$rdir"
for spec in "8 0" "12 0" "16 0" "8 4" "16 4" "24 6"; do
    bits=${spec% *}
    bypass=${spec#* }
    ./target/release/xrta gen adder --bits "$bits" --bypass "$bypass" \
        --out "$rdir/add${bits}_${bypass}.bench"
done
fam_count=$(ls "$rdir"/*.bench | wc -l)
[ "$fam_count" -ge 6 ] || {
    echo "adder family generation produced only $fam_count netlists"; exit 1; }
resynth_out=$(./target/release/xrta resynth "$rdir/add8_0.bench" \
    --out "$rdir/add8_0.resynth.bench")
echo "$resynth_out" | grep -q "improved" || {
    echo "resynth found no improvement on add8:"; echo "$resynth_out"; exit 1; }
echo "$resynth_out" | grep -q "equivalence proof(s)" || {
    echo "resynth kept rewrites without proofs:"; echo "$resynth_out"; exit 1; }
./target/release/xrta resynth "$rdir/add8_0.resynth.bench" \
    --out "$rdir/add8_0.resynth2.bench" > /dev/null
cmp "$rdir/add8_0.resynth.bench" "$rdir/add8_0.resynth2.bench" || {
    echo "resynth is not a fixpoint: second run changed the netlist"; exit 1; }
echo "    add8 improved with proofs; second run byte-stable"
# The differential runs over a copy of the shipped corpus at 9 inputs,
# where add4_bypass becomes a base whose spine gets rewritten. Random
# bases this small rarely hold one, and a run that keeps no rewrite
# never judges one, so "0 changed" fails the step.
cp -r netlists/corpus "$rdir/corpus"
rfuzz_out=$(./target/release/xrta fuzz --resynth 32 --max-inputs 9 \
    --time-cap 120 --corpus "$rdir/corpus")
echo "$rfuzz_out"
rchanged=$(echo "$rfuzz_out" | sed -n 's/.* | \([0-9]*\) changed | .*/\1/p')
if [ -z "$rchanged" ] || [ "$rchanged" -lt 1 ]; then
    echo "resynthesis differential kept no rewrite: ${rchanged:-no} changed"
    exit 1
fi
rm -rf "$rdir"

# Memory governance smoke: a tight byte budget must step the exact
# rung down with memory-out provenance (exit 3) — never an allocator
# abort or the OOM killer.
echo "==> memory governance smoke: mult4 exact under 64M degrades"
set +e
mem_out=$(./target/release/xrta reqtime netlists/mult4.bench \
    --algo exact --mem-limit 64M --timeout 10 2>&1)
mem_rc=$?
set -e
if [ "$mem_rc" != 3 ]; then
    echo "memory smoke: expected exit 3 (degraded), got $mem_rc"
    echo "$mem_out"
    exit 1
fi
echo "$mem_out" | grep -q "memory budget exhausted" || {
    echo "memory smoke: provenance does not name the memory budget"
    echo "$mem_out"
    exit 1
}
echo "    degraded with memory-out provenance"
# The same run without a byte budget must run into the node cap
# instead: Table 1's `memory out` is the node limit's verdict, and the
# BDD tables' bytes must not decide it.
echo "==> node cap smoke: mult4 exact without a byte budget degrades"
set +e
cap_out=$(./target/release/xrta reqtime netlists/mult4.bench \
    --algo exact --timeout 10 2>&1)
cap_rc=$?
set -e
if [ "$cap_rc" != 3 ]; then
    echo "node cap smoke: expected exit 3 (degraded), got $cap_rc"
    echo "$cap_out"
    exit 1
fi
echo "$cap_out" | grep -q "bdd node budget of 4194304 nodes exhausted" || {
    echo "node cap smoke: provenance does not name the node budget"
    echo "$cap_out"
    exit 1
}
echo "    degraded with node-budget provenance"

# Chaos smoke: the failpoints feature must build clean and the batch
# runner must survive seeded faults, in-process kills, journal tail
# loss and resume with a byte-stable report (tests/chaos.rs).
echo "==> chaos tests (--features failpoints)"
cargo clippy --workspace --all-targets --features failpoints -- -D warnings
timeout 300 cargo test -q --features failpoints --test chaos
timeout 300 cargo test -q --features failpoints --test cluster
no_leftover_daemons "the failpoints chaos/cluster tests"

# Kill-and-resume, out of process: SIGKILL a real batch run mid-flight,
# then assert --resume completes it and the report matches a reference
# uninterrupted run's byte for byte.
echo "==> batch SIGKILL kill-and-resume"
bdir="/tmp/xrta-ci-batch-$$"
mkdir -p "$bdir"
for i in $(seq 0 799); do
    printf 'netlists/c17.bench algo=approx2\nnetlists/fig4.blif algo=exact\nnetlists/bypass.bench algo=approx1\n'
done > "$bdir/sweep.manifest"
./target/release/xrta batch "$bdir/sweep.manifest" \
    --journal "$bdir/ref.journal" --report "$bdir/ref.report.json"
# The kill window is a race against completion; retry from scratch if
# the run finishes before the SIGKILL lands.
resumed=0
for attempt in 1 2 3; do
    rm -f "$bdir/kill.journal" "$bdir/kill.report.json"
    timeout -s KILL 0.4 ./target/release/xrta batch "$bdir/sweep.manifest" \
        --journal "$bdir/kill.journal" --report "$bdir/kill.report.json" \
        >/dev/null && continue
    ./target/release/xrta batch "$bdir/sweep.manifest" --resume \
        --journal "$bdir/kill.journal" --report "$bdir/kill.report.json"
    resumed=1
    break
done
if [ "$resumed" = 1 ]; then
    cmp "$bdir/ref.report.json" "$bdir/kill.report.json"
    echo "    resume report matches the uninterrupted run"
else
    echo "    batch finished before every SIGKILL; resume path covered in-process only"
fi
rm -rf "$bdir"

# Serve smoke: boot the daemon on an ephemeral port with a disk cache,
# replay the same request set twice, and require the second pass to be
# served (almost) entirely from cache before draining gracefully.
echo "==> serve smoke: replay cache hits + graceful drain"
sdir="/tmp/xrta-ci-serve-$$"
mkdir -p "$sdir/cache"
./target/release/xrta serve --addr 127.0.0.1:0 --workers 2 \
    --mem-limit 256M --cache-dir "$sdir/cache" > "$sdir/serve.out" &
serve_pid=$!
addr=""
for i in $(seq 1 100); do
    addr=$(sed -n 's/^xrta: serving on //p' "$sdir/serve.out")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "serve daemon never announced an address"; exit 1; }
serve_replay() {
    for n in netlists/add8.bench netlists/c17.bench netlists/bypass.bench; do
        for r in 9 11 19; do
            ./target/release/xrta request --addr "$addr" "$n" --req "$r" \
                >/dev/null
        done
    done
}
serve_hits() {
    ./target/release/xrta request --addr "$addr" --stats \
        | sed -n 's/^serve: [0-9]* requests | \([0-9]*\) hits.*/\1/p'
}
serve_replay
hits_before=$(serve_hits)
serve_replay
hits_after=$(serve_hits)
replayed=9
gained=$((hits_after - hits_before))
if [ "$gained" -lt $((replayed * 9 / 10)) ]; then
    echo "replay pass only hit the cache $gained/$replayed times"
    exit 1
fi
echo "    replay pass: $gained/$replayed cache hits"
# Incremental replay: a delta request populates the cone cache; its
# replay must answer (almost) entirely from cached cone verdicts.
./target/release/xrta request --addr "$addr" netlists/add8.bench --delta \
    >/dev/null
./target/release/xrta request --addr "$addr" netlists/add8.bench --delta \
    >/dev/null
cone_line=$(./target/release/xrta request --addr "$addr" --stats \
    | sed -n 's/.*cones: \([0-9]*\) hit, \([0-9]*\) miss.*/\1 \2/p')
cone_hits=${cone_line% *}
cone_misses=${cone_line#* }
if [ -z "$cone_hits" ] || [ "$cone_hits" -lt 1 ] \
    || [ "$cone_hits" -lt $((cone_misses * 9 / 10)) ]; then
    echo "delta replay reused too few cones: $cone_hits hit / $cone_misses miss"
    exit 1
fi
echo "    delta replay: $cone_hits cone hits, $cone_misses misses"
# The stats tail carries the byte meter: a nonzero high-water mark
# after the cache-churning replays above, and the daemon's 256M policy
# limit was never breached.
mem_peak=$(./target/release/xrta request --addr "$addr" --stats \
    | sed -n 's/.*mem_bytes [0-9]* mem_peak \([0-9]*\).*/\1/p')
if [ -z "$mem_peak" ] || [ "$mem_peak" -lt 1 ]; then
    echo "serve stats line lacks a nonzero memory meter tail"
    ./target/release/xrta request --addr "$addr" --stats
    exit 1
fi
if [ "$mem_peak" -gt $((256 * 1024 * 1024)) ]; then
    echo "serve mem_peak $mem_peak breached the 256M policy limit"
    exit 1
fi
echo "    serve stats report mem_peak $mem_peak (under the 256M limit)"
./target/release/xrta request --addr "$addr" --shutdown
wait "$serve_pid"
rm -rf "$sdir"

# Cluster smoke: a router over two shards. Replay the corpus twice and
# require the second pass cached (the consistent-hash routing keeps each
# key's shard stable); SIGKILL one shard and replay again expecting
# zero failures (failover + client retries); finally roll both shards
# out with `route drain`.
echo "==> cluster smoke: routed cache hits + shard kill + rolling drain"
cdir="/tmp/xrta-ci-cluster-$$"
mkdir -p "$cdir"
./target/release/xrta serve --addr 127.0.0.1:0 --workers 2 \
    > "$cdir/shard1.out" &
shard1_pid=$!
./target/release/xrta serve --addr 127.0.0.1:0 --workers 2 \
    > "$cdir/shard2.out" &
shard2_pid=$!
shard1=""; shard2=""
for i in $(seq 1 100); do
    shard1=$(sed -n 's/^xrta: serving on //p' "$cdir/shard1.out")
    shard2=$(sed -n 's/^xrta: serving on //p' "$cdir/shard2.out")
    [ -n "$shard1" ] && [ -n "$shard2" ] && break
    sleep 0.1
done
[ -n "$shard1" ] && [ -n "$shard2" ] || {
    echo "cluster shards never announced addresses"; exit 1; }
./target/release/xrta route --addr 127.0.0.1:0 \
    --shards "$shard1,$shard2" --probe-interval 0.1 --cooldown 0.3 \
    > "$cdir/route.out" &
route_pid=$!
raddr=""
for i in $(seq 1 100); do
    raddr=$(sed -n 's/^xrta: routing on \([^ ]*\).*/\1/p' "$cdir/route.out")
    [ -n "$raddr" ] && break
    sleep 0.1
done
[ -n "$raddr" ] || { echo "router never announced an address"; exit 1; }
cluster_replay() {
    for n in netlists/add8.bench netlists/c17.bench netlists/bypass.bench; do
        for r in 9 11 19; do
            ./target/release/xrta request --addr "$raddr" "$n" --req "$r" \
                >/dev/null
        done
    done
}
cluster_hits() {
    ./target/release/xrta request --addr "$raddr" --stats \
        | sed -n 's/^serve: [0-9]* requests | \([0-9]*\) hits.*/\1/p'
}
cluster_replay
chits_before=$(cluster_hits)
cluster_replay
chits_after=$(cluster_hits)
cgained=$((chits_after - chits_before))
if [ "$cgained" -lt $((replayed * 9 / 10)) ]; then
    echo "routed replay only hit the shard caches $cgained/$replayed times"
    exit 1
fi
echo "    routed replay: $cgained/$replayed cache hits"
# Routed delta replay: the full-content dedup key pins a netlist's
# deltas to one shard, so the replay hits that shard's cone cache; the
# router's stats answer aggregates the cone counters across shards.
./target/release/xrta request --addr "$raddr" netlists/c17.bench --delta \
    >/dev/null
./target/release/xrta request --addr "$raddr" netlists/c17.bench --delta \
    >/dev/null
ccone_hits=$(./target/release/xrta request --addr "$raddr" --stats \
    | sed -n 's/.*cones: \([0-9]*\) hit.*/\1/p')
if [ -z "$ccone_hits" ] || [ "$ccone_hits" -lt 2 ]; then
    echo "routed delta replay reused too few cones: ${ccone_hits:-none}"
    exit 1
fi
echo "    routed delta replay: $ccone_hits cone hits"
kill -9 "$shard1_pid"
cluster_replay
echo "    replay survived a shard SIGKILL with zero failures"
./target/release/xrta route drain "$shard2" --addr "$raddr"
wait "$shard2_pid"
./target/release/xrta route drain "$shard1" --addr "$raddr" || true
./target/release/xrta request --addr "$raddr" --shutdown
wait "$route_pid"
wait "$shard1_pid" || true
rm -rf "$cdir"

# Same-search gate: the §4.3 climb is deterministic, so its per-row
# counts must equal the rows of the checked-in BENCH_reqtime.json. A
# change that alters the search must regenerate that report and say
# why. C6288 is left out: it stops at its deadline, so its counts
# depend on the host's speed.
echo "==> same-search gate: table2 counts match BENCH_reqtime.json"
qdir="/tmp/xrta-ci-search-$$"
mkdir -p "$qdir"
search_rows="C432 C499 C880 C1355 C1908 C2670 C3540 C5315 C7552"
./target/release/table2 --rows "${search_rows// /,}" --jobs 1 \
    --budget-secs 30 --json "$qdir/t1.json" > /dev/null
# "circuit oracle_calls batches batched_probes" of one circuit row.
search_counts() {
    grep '"circuit"' "$1" | sed -n 's/.*"circuit": "\([^"]*\)".*"oracle_calls": \([0-9]*\),.*"batches": \([0-9]*\), "batched_probes": \([0-9]*\),.*/\1 \2 \3 \4/p' \
        | grep "^$2 " | head -1 || true
}
for row in $search_rows; do
    fresh=$(search_counts "$qdir/t1.json" "$row")
    pinned=$(search_counts BENCH_reqtime.json "$row")
    if [ -z "$fresh" ] || [ "$fresh" != "$pinned" ]; then
        echo "same-search gate: $row reads '${fresh:-no row}', BENCH_reqtime.json '${pinned:-no row}'"
        exit 1
    fi
done
echo "    oracle_calls, batches and batched_probes match on all nine rows"
rm -rf "$qdir"

# Table 2's C6288 row must read "Yes", as in the paper: the clamped χ
# network (ChiSatEngine) proves a raised input safe well inside 10 s.
# Without the clamp every probe is a multiplier miter and the row
# reads "No".
echo "==> Table 2 C6288 finds a non-trivial required time"
cdir6288="/tmp/xrta-ci-c6288-$$"
mkdir -p "$cdir6288"
./target/release/table2 --rows C6288 --budget-secs 10 --jobs 1 \
    --json "$cdir6288/c6288.json" > /dev/null
grep '"circuit": "C6288"' "$cdir6288/c6288.json" | grep -q '"nontrivial": true' || {
    echo "C6288 row found no non-trivial required time:"
    grep '"circuit"' "$cdir6288/c6288.json"
    exit 1
}
echo "    C6288: non-trivial"
rm -rf "$cdir6288"

echo "CI OK"
