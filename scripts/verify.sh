#!/usr/bin/env bash
# Repo verification gate: formatting, lints, and the tier-1 test suite.
# Run from the repo root:  ./scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> docs name only targets that exist (--bin / --bench / benches/*.rs in the four measurement docs)"
missing=$(grep -ohE -- '--(bin|bench) [A-Za-z0-9_-]+|benches/[A-Za-z0-9_]+\.rs' \
    README.md DESIGN.md EXPERIMENTS.md census_bench/README.md | sort -u |
  while IFS= read -r hit; do
    name=${hit##* }
    case $hit in
      benches/*) [ -f "crates/bench/$hit" ] || echo "    $hit" ;;
      *) [ -f "src/bin/$name.rs" ] || [ -f "crates/bench/src/bin/$name.rs" ] \
           || { [ "$name" = census_bench ] && [ -f census_bench/Cargo.toml ]; } \
           || echo "    $hit" ;;
    esac
  done)
[ -z "$missing" ] || { echo "FAIL: docs name targets that do not exist:"; echo "$missing"; exit 1; }

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rustdoc: cargo doc --workspace --no-deps with warnings as errors (broken intra-doc links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

echo "==> tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "==> batch smoke test (multi-COUNTP statement == two single-agg runs)"
tmpdir=$(mktemp -d)
serve_pid=""
cleanup() {
  [ -n "${sub_pid:-}" ] && kill "$sub_pid" 2>/dev/null || true
  [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null || true
  rm -rf "$tmpdir"
}
trap cleanup EXIT
./target/release/egocensus generate --model ba --nodes 300 --param 3 --seed 7 \
  -o "$tmpdir/g.txt" >/dev/null
# Headers quote the agg expressions (they contain commas), so compare
# data rows only.
./target/release/egocensus query "$tmpdir/g.txt" --csv \
  'SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)), COUNTP(single_edge, SUBGRAPH(ID, 2)) FROM nodes' \
  | tail -n +2 >"$tmpdir/batched.csv"
./target/release/egocensus query "$tmpdir/g.txt" --csv \
  'SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes' | tail -n +2 >"$tmpdir/agg1.csv"
./target/release/egocensus query "$tmpdir/g.txt" --csv \
  'SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 2)) FROM nodes' | tail -n +2 >"$tmpdir/agg2.csv"
cut -d, -f1,2 "$tmpdir/batched.csv" | diff - "$tmpdir/agg1.csv" \
  || { echo "FAIL: batched agg 1 diverges from its single-agg run"; exit 1; }
cut -d, -f1,3 "$tmpdir/batched.csv" | diff - "$tmpdir/agg2.csv" \
  || { echo "FAIL: batched agg 2 diverges from its single-agg run"; exit 1; }
echo "    batched counts match single-agg runs column for column"

echo "==> out-of-core store smoke test (convert to .egb; text vs mmap CSVs byte-identical)"
./target/release/egocensus convert "$tmpdir/g.txt" -o "$tmpdir/g.egb" >/dev/null
# Buffer the output before grep -q: piping directly races EPIPE when
# grep exits at the first match while stats is still printing.
./target/release/egocensus stats "$tmpdir/g.egb" >"$tmpdir/stats_out.txt"
grep -q '^storage:     mmap$' "$tmpdir/stats_out.txt" \
  || { echo "FAIL: .egb graph should report mmap storage"; exit 1; }
store_sql='SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)), COUNTP(single_edge, SUBGRAPH(ID, 2)) FROM nodes ORDER BY 1'
./target/release/egocensus query "$tmpdir/g.txt" --csv "$store_sql" >"$tmpdir/census_txt.csv"
./target/release/egocensus query "$tmpdir/g.egb" --csv "$store_sql" >"$tmpdir/census_egb.csv"
cmp -s "$tmpdir/census_txt.csv" "$tmpdir/census_egb.csv" \
  || { echo "FAIL: census over the mmap store diverges from the text-loaded store"; exit 1; }
# convert re-opens what it wrote and verifies the structural fingerprint,
# so a clean exit here also covers the .egb -> text direction.
./target/release/egocensus convert "$tmpdir/g.egb" -o "$tmpdir/g2.txt" >/dev/null
echo "    text and mmap backends agree byte-for-byte; .egb round-trips both ways"

echo "==> setops kernel equivalence (EGO_SETOPS overrides, byte-identical CSVs)"
# A fig4-style census must produce byte-for-byte identical CSVs whichever
# set-intersection kernel the matcher is forced onto, at any thread count.
kernel_sql='SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)), COUNTP(clq4u, SUBGRAPH(ID, 2)) FROM nodes ORDER BY 1'
kernel_def='PATTERN clq4u { ?A-?B; ?A-?C; ?A-?D; ?B-?C; ?B-?D; ?C-?D; }'
EGO_SETOPS=merge ./target/release/egocensus query "$tmpdir/g.txt" --threads 1 --csv \
  --define "$kernel_def" "$kernel_sql" >"$tmpdir/kernel_ref.csv"
for kernel in merge gallop bitset adaptive; do
  for t in 1 4; do
    EGO_SETOPS=$kernel ./target/release/egocensus query "$tmpdir/g.txt" --threads "$t" --csv \
      --define "$kernel_def" "$kernel_sql" >"$tmpdir/kernel_got.csv"
    cmp -s "$tmpdir/kernel_ref.csv" "$tmpdir/kernel_got.csv" \
      || { echo "FAIL: EGO_SETOPS=$kernel --threads $t diverges from the merge kernel"; exit 1; }
  done
done
# The match listing too, order included (its first line is the wall time).
match_wedge='PATTERN w { ?A-?B; ?B-?C; ?A!-?C; }'
match_listing() { # $1 = kernel, $2 = threads, $3 = output
  EGO_SETOPS=$1 ./target/release/egocensus match "$tmpdir/g.txt" --threads "$2" \
    --pattern "$match_wedge" >"$tmpdir/match_raw.txt"
  tail -n +2 "$tmpdir/match_raw.txt" >"$3"
}
match_listing merge 1 "$tmpdir/match_ref.txt"
for kernel in merge gallop bitset adaptive; do
  for t in 1 4; do
    match_listing "$kernel" "$t" "$tmpdir/match_got.txt"
    cmp -s "$tmpdir/match_ref.txt" "$tmpdir/match_got.txt" \
      || { echo "FAIL: match under EGO_SETOPS=$kernel --threads $t diverges from merge/threads 1"; exit 1; }
  done
done
echo "    merge/gallop/bitset/adaptive kernels agree byte-for-byte (threads 1 and 4; census and match)"

echo "==> PT kernel equivalence (every algorithm family, byte-identical CSVs; wide clusters; huge radius)"
# The pattern-driven family shares one cluster kernel; whatever it does to
# memory, its CSVs must match ND-PVOT's byte for byte at any thread count.
pt_check() { # $1 = graph, $2 = sql, $3 = label, [$4 = pattern to define]
  local def=()
  [ -z "${4:-}" ] || def=(--define "$4")
  ./target/release/egocensus query "$1" --algorithm nd-pivot --threads 1 --csv "${def[@]}" "$2" \
    >"$tmpdir/pt_ref.csv"
  for algo in nd-pivot pt-bas pt-rnd pt-opt; do
    for t in 1 4; do
      ./target/release/egocensus query "$1" --algorithm "$algo" --threads "$t" --csv "${def[@]}" "$2" \
        >"$tmpdir/pt_got.csv" \
        || { echo "FAIL: $3: --algorithm $algo --threads $t did not answer"; exit 1; }
      cmp -s "$tmpdir/pt_ref.csv" "$tmpdir/pt_got.csv" \
        || { echo "FAIL: $3: --algorithm $algo --threads $t diverges from ND-PVOT"; exit 1; }
    done
  done
}
pt_check "$tmpdir/g.txt" \
  'SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 2)), COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 1' \
  "BA smoke graph"
# No distance reaches 70 000 hops in a 300-node graph: the radius means
# "the whole component", and the u16 PMD rows must not be what answers.
pt_check "$tmpdir/g.txt" 'SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 70000)) FROM nodes ORDER BY 1' \
  "radius 70000"
[ "$(wc -l <"$tmpdir/pt_ref.csv")" -eq 301 ] \
  || { echo "FAIL: radius 70000 should return one row per node"; exit 1; }
# Pairwise census credits pairs from the same cluster kernel's PMD rows.
pair_where='FROM nodes a, nodes b WHERE a.ID < 40 AND b.ID < 40'
pt_check "$tmpdir/g.txt" \
  "SELECT a.ID, b.ID, COUNTP(clq3_unlb, SUBGRAPH-INTERSECTION(a.ID, b.ID, 2)) $pair_where" \
  "pairwise intersection"
pt_check "$tmpdir/g.txt" \
  "SELECT a.ID, b.ID, COUNTSP(s, trisp, SUBGRAPH-UNION(a.ID, b.ID, 1)) $pair_where" \
  "pairwise COUNTSP union" 'PATTERN trisp { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }'
# COUNTSP whose two subpattern nodes are tied pivots.
pt_check "$tmpdir/g.txt" 'SELECT ID, COUNTSP(s, midpath, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 1' \
  "tied-subpattern COUNTSP" 'PATTERN midpath { ?A-?B; ?B-?C; ?C-?D; SUBPATTERN s {?B; ?C;} }'
# A 33-anchor match: union coverage has no anchor cap.
{
  echo "# egocensus graph v1"
  echo "graph undirected nodes=33"
  for i in $(seq 0 31); do echo "edge $i $((i + 1))"; done
} >"$tmpdir/path33.txt"
pt_check "$tmpdir/path33.txt" \
  'SELECT a.ID, b.ID, COUNTP(p33, SUBGRAPH-INTERSECTION(a.ID, b.ID, 40)) FROM nodes a, nodes b' \
  "33-anchor pairwise" "PATTERN p33 { $(for i in $(seq 0 31); do printf '?V%d-?V%d; ' "$i" $((i + 1)); done)}"
# 33 500 disjoint edges: no center reaches most matches, K-means leaves
# ~33 245 of them in one cluster, and its ~66 490 anchor images need
# column numbers past u16. PMD is dense (visited nodes x cluster
# anchors): ~9 GB here, so the shape is skipped on a small host.
if [ "$(awk '/^MemAvailable:/ { print int($2 / 1048576) }' /proc/meminfo)" -ge 11 ]; then
  {
    echo "# egocensus graph v1"
    echo "graph undirected nodes=67000"
    seq 0 2 66998 | awk '{ print "edge", $1, $1 + 1 }'
  } >"$tmpdir/frag.txt"
  pt_check "$tmpdir/frag.txt" 'SELECT ID, COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 1' \
    "66 490-anchor cluster"
  rm "$tmpdir/frag.txt"
  echo "    ND-PVOT / PT-BAS / PT-RND / PT-OPT agree byte-for-byte (threads 1 and 4), pairwise and wide cluster included"
else
  echo "    ND-PVOT / PT-BAS / PT-RND / PT-OPT agree byte-for-byte (threads 1 and 4), pairwise included;" \
    "wide-cluster shape SKIPPED (needs 11 GB available)"
fi

echo "==> ND kernel equivalence (node-driven family, byte-identical CSVs; a prefix radius; top-k)"
# ND-PVOT's containment rule and per-focal sweep exist once (single
# pattern, batch, top-k, pairwise); ND-BAS and ND-DIFF keep their own
# kernels. Every CSV must match ND-PVOT's at one thread, byte for byte.
nd_check() { # $1 = sql, $2 = label, [$3 = pattern to define]
  local def=()
  [ -z "${3:-}" ] || def=(--define "$3")
  ./target/release/egocensus query "$tmpdir/g.txt" --algorithm nd-pivot --threads 1 --csv "${def[@]}" "$1" \
    >"$tmpdir/nd_ref.csv"
  for algo in nd-bas nd-pivot nd-diff; do
    for t in 1 4; do
      ./target/release/egocensus query "$tmpdir/g.txt" --algorithm "$algo" --threads "$t" --csv "${def[@]}" "$1" \
        >"$tmpdir/nd_got.csv" \
        || { echo "FAIL: $2: --algorithm $algo --threads $t did not answer"; exit 1; }
      cmp -s "$tmpdir/nd_ref.csv" "$tmpdir/nd_got.csv" \
        || { echo "FAIL: $2: --algorithm $algo --threads $t diverges from ND-PVOT"; exit 1; }
    done
  done
}
nd_check 'SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 1' "one aggregate"
# Radii 1 and 2 in one statement: one sweep at k = 2 serves radius 1 as
# a prefix of its frontier.
nd_check 'SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 2)), COUNTP(single_edge, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 1' \
  "two radii, one sweep"
# ND-PVOT keys each match at the lowest-degree image among its tied
# pivots: all four corners of a square tie, and so do both ends of the
# edge in a disconnected pattern, whose every bucket takes the check.
nd_check 'SELECT ID, COUNTP(sq4, SUBGRAPH(ID, 2)) FROM nodes ORDER BY 1' \
  "square, four tied pivots" 'PATTERN sq4 { ?A-?B; ?B-?C; ?C-?D; ?D-?A; }'
nd_check 'SELECT ID, COUNTP(split, SUBGRAPH(ID, 1)) FROM nodes WHERE ID < 60 ORDER BY 1' \
  "disconnected pattern" 'PATTERN split { ?A-?B; ?C; }'
# Top-k counts with the same containment rule: its list is the census's head.
tri='PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }'
./target/release/egocensus topk "$tmpdir/g.txt" --pattern "$tri" --k 2 --top 10 \
  | sed -n 's/^  node \([0-9]*\): \([0-9]*\)$/\1,\2/p' >"$tmpdir/topk.csv"
./target/release/egocensus query "$tmpdir/g.txt" --csv --define "$tri" \
  'SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes ORDER BY 2 DESC, 1 LIMIT 10' \
  | tail -n +2 >"$tmpdir/topk_sql.csv"
[ "$(wc -l <"$tmpdir/topk.csv")" -eq 10 ] \
  || { echo "FAIL: topk --top 10 should list ten nodes"; exit 1; }
cmp -s "$tmpdir/topk.csv" "$tmpdir/topk_sql.csv" \
  || { echo "FAIL: topk diverges from the census's ORDER BY ... LIMIT 10"; exit 1; }
echo "    ND-BAS / ND-PVOT / ND-DIFF agree byte-for-byte (threads 1 and 4, prefix radius included); topk = census head"

echo "==> server smoke test (ephemeral port, one query, clean shutdown)"
./target/release/egocensus serve "$tmpdir/g.txt" --addr 127.0.0.1:0 \
  --threads 2 --cache-mb 8 >"$tmpdir/serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^listening on //p' "$tmpdir/serve.log")
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "FAIL: server never printed its address"; exit 1; }
rows=$(./target/release/egocensus client --addr "$addr" --csv \
  'SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes' | tail -n +2 | wc -l)
[ "$rows" -eq 300 ] || { echo "FAIL: expected 300 result rows, got $rows"; exit 1; }
./target/release/egocensus client --addr "$addr" --shutdown >/dev/null
wait "$serve_pid"
serve_pid=""
echo "    served 300 rows and shut down cleanly"

echo "==> dynamic smoke test (mutate --verify and its fingerprint, undirected and directed; server update invalidates caches)"
# Two triangles sharing node 2, chain 4-5-6: inserting (4, 6) closes a
# third triangle, so node 5's k=1 triangle count goes 0 -> 1.
cat >"$tmpdir/dyn.txt" <<'EOF'
# egocensus graph v1
graph undirected nodes=7
edge 0 1
edge 1 2
edge 0 2
edge 2 3
edge 3 4
edge 2 4
edge 4 5
edge 5 6
EOF
./target/release/egocensus mutate "$tmpdir/dyn.txt" \
  --apply 'INSERT EDGE (4, 6); DELETE EDGE (0, 1)' \
  --pattern 'PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }' --k 1 --verify \
  -o "$tmpdir/dyn2.txt" >"$tmpdir/mutate_out.txt" \
  || { echo "FAIL: egocensus mutate --verify rejected the incremental counts"; exit 1; }
# The fingerprint mutate reports is the written graph's: convert
# re-derives it from the file's contents.
check_mutate_fingerprint() { # $1 = mutate output, $2 = the graph it wrote
  mutate_fp=$(sed -n 's/^fingerprint: .* -> \([0-9a-f]*\)$/\1/p' "$1")
  ./target/release/egocensus convert "$2" -o "$2.egb" --force >"$tmpdir/convert_out.txt"
  convert_fp=$(sed -n 's/.*fingerprint \([0-9a-f]*\) verified.*/\1/p' "$tmpdir/convert_out.txt")
  [ -n "$mutate_fp" ] && [ "$mutate_fp" = "$convert_fp" ] \
    || { echo "FAIL: mutate printed fingerprint '$mutate_fp', $2 has '$convert_fp'"; exit 1; }
}
check_mutate_fingerprint "$tmpdir/mutate_out.txt" "$tmpdir/dyn2.txt"
# The base census's match list is maintained across the delta, not
# re-matched: deleting (0, 1) drops {0,1,2}, inserting (4, 6) finds
# {4,5,6}, and {2,3,4} survives.
grep -q '^  matches: *1 survivors, 1 dropped, 1 discovered$' "$tmpdir/mutate_out.txt" \
  || { cat "$tmpdir/mutate_out.txt"; echo "FAIL: mutate did not maintain the base census's match list"; exit 1; }
# Directed leg: deleting 1->0 of the antiparallel pair 0->1 / 1->0 keeps
# 0-1 in the undirected view; the spliced CSR must agree with a rebuild.
cat >"$tmpdir/dyn_dir.txt" <<'EOF'
# egocensus graph v1
graph directed nodes=6
edge 0 1
edge 1 0
edge 1 2
edge 2 0
edge 2 3
edge 3 4
edge 4 5
EOF
./target/release/egocensus mutate "$tmpdir/dyn_dir.txt" \
  --apply 'DELETE EDGE (1, 0); INSERT EDGE (5, 3); INSERT EDGE (3, 2); DELETE EDGE (2, 3)' \
  --pattern 'PATTERN p { ?A->?B; ?B->?C; }' --k 1 --verify \
  -o "$tmpdir/dyn_dir2.txt" >"$tmpdir/mutate_dir_out.txt" \
  || { echo "FAIL: directed mutate --verify rejected the incremental counts"; exit 1; }
check_mutate_fingerprint "$tmpdir/mutate_dir_out.txt" "$tmpdir/dyn_dir2.txt"
./target/release/egocensus serve "$tmpdir/dyn.txt" --addr 127.0.0.1:0 \
  --threads 2 --cache-mb 8 >"$tmpdir/dyn-serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^listening on //p' "$tmpdir/dyn-serve.log")
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "FAIL: dynamic server never printed its address"; exit 1; }
sql='SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes'
./target/release/egocensus client --addr "$addr" --csv "$sql" >"$tmpdir/before.csv"
./target/release/egocensus client --addr "$addr" --update 'INSERT EDGE (4, 6)' >/dev/null
./target/release/egocensus client --addr "$addr" --csv "$sql" >"$tmpdir/after.csv"
diff -q "$tmpdir/before.csv" "$tmpdir/after.csv" >/dev/null \
  && { echo "FAIL: update served a stale cached answer"; exit 1; }
grep -q '^5,1$' "$tmpdir/after.csv" \
  || { echo "FAIL: node 5 should count one triangle after the insert"; exit 1; }
stats=$(./target/release/egocensus client --addr "$addr" --csv --stats)
echo "$stats" | grep -q '^graph_updates,1$' \
  || { echo "FAIL: stats should report graph_updates = 1"; exit 1; }
echo "$stats" | grep -q '^cache_invalidations,1$' \
  || { echo "FAIL: stats should report cache_invalidations = 1"; exit 1; }
./target/release/egocensus client --addr "$addr" --shutdown >/dev/null
wait "$serve_pid"
serve_pid=""
echo "    mutate --verify passed, maintained the match list and printed the written graph's fingerprint; update re-censused and invalidated the caches"

echo "==> sharded tier smoke test (router + 2 workers on the .egb store, failover)"
shard_sql='SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)), COUNTP(single_edge, SUBGRAPH(ID, 2)) FROM nodes'
./target/release/egocensus query "$tmpdir/g.egb" --csv "$shard_sql" >"$tmpdir/shard_direct.csv"
./target/release/egocensus serve "$tmpdir/g.egb" --addr 127.0.0.1:0 \
  --workers 2 --threads 2 --cache-mb 8 >"$tmpdir/shard-serve.log" &
serve_pid=$!
addr=""
for _ in $(seq 1 100); do
  addr=$(sed -n 's/^listening on //p' "$tmpdir/shard-serve.log")
  [ -n "$addr" ] && break
  sleep 0.1
done
[ -n "$addr" ] || { echo "FAIL: router never printed its address"; exit 1; }
./target/release/egocensus client --addr "$addr" --csv "$shard_sql" >"$tmpdir/shard_routed.csv"
cmp -s "$tmpdir/shard_direct.csv" "$tmpdir/shard_routed.csv" \
  || { echo "FAIL: routed scatter/gather diverges from the direct engine"; exit 1; }
# Kill one worker mid-run; the router must re-scatter its shard to the
# survivor and still answer byte-identically.
worker_pid=$(sed -n 's/^worker 0 listening on .* (pid \([0-9]*\))$/\1/p' "$tmpdir/shard-serve.log")
[ -n "$worker_pid" ] || { echo "FAIL: router never printed worker 0's pid"; exit 1; }
kill -9 "$worker_pid"
./target/release/egocensus client --addr "$addr" --csv "$shard_sql" >"$tmpdir/shard_failover.csv"
cmp -s "$tmpdir/shard_direct.csv" "$tmpdir/shard_failover.csv" \
  || { echo "FAIL: post-failover query diverges from the direct engine"; exit 1; }
shard_stats=$(./target/release/egocensus client --addr "$addr" --csv --stats)
echo "$shard_stats" | grep -q '^router_worker_failures,[1-9]' \
  || { echo "FAIL: stats should report at least one worker failure"; exit 1; }
echo "$shard_stats" | grep -q '^router_workers_up,1$' \
  || { echo "FAIL: stats should report one surviving worker"; exit 1; }
./target/release/egocensus client --addr "$addr" --shutdown >/dev/null
wait "$serve_pid" || true
serve_pid=""
echo "    router matched the direct engine byte-for-byte, before and after losing a worker"

echo "==> wire codec (a request line at the cap is answered promptly; routed raw replies equal a direct server's)"
# `egocensus client` prints CSV only, so the raw lines go through bash's
# /dev/tcp: a reply that decodes to the same CSV could still differ on the
# wire.
raw_exchange() { # $1 = host:port, $2 = request line; prints the reply line
  local reply
  exec 3<>"/dev/tcp/${1%:*}/${1##*:}"
  printf '%s\n' "$2" >&3
  IFS= read -r -t 5 reply <&3 || { exec 3>&-; return 1; }
  exec 3>&-
  printf '%s\n' "$reply"
}
# One line 64 bytes under the 1 MiB request cap; its string field once
# took ~18 s to decode.
pad=$(head -c $((1048576 - 64 - 22)) /dev/zero | tr '\0' x)
big_line="{\"op\":\"ping\",\"pad\":\"$pad\"}"
[ "${#big_line}" -eq $((1048576 - 64)) ] || { echo "FAIL: cap line is ${#big_line} bytes"; exit 1; }
pong='{"ok":true,"type":"table","columns":["reply"],"rows":[["pong"]]}'
codec_sql='SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)), COUNTP(single_edge, SUBGRAPH(ID, 2)) FROM nodes'
codec_lines=(
  "{\"op\":\"query\",\"sql\":\"$codec_sql\"}"
  "{\"op\":\"query\",\"sql\":\"$codec_sql ORDER BY 3 DESC, 1 LIMIT 10\"}"
)
for mode in direct routed; do
  serve_args=(--threads 2 --cache-mb 8)
  [ "$mode" = routed ] && serve_args+=(--workers 2)
  ./target/release/egocensus serve "$tmpdir/g.egb" --addr 127.0.0.1:0 \
    "${serve_args[@]}" >"$tmpdir/codec-$mode.log" &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$tmpdir/codec-$mode.log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "FAIL: $mode server never printed its address"; exit 1; }
  reply=$(raw_exchange "$addr" "$big_line") \
    || { echo "FAIL: $mode server did not answer a line at the cap within 5 s"; exit 1; }
  [ "$reply" = "$pong" ] || { echo "FAIL: $mode reply to the cap line: ${reply:0:200}"; exit 1; }
  for i in "${!codec_lines[@]}"; do
    raw_exchange "$addr" "${codec_lines[$i]}" >"$tmpdir/codec-$mode-$i.txt" \
      || { echo "FAIL: $mode server did not answer statement $i"; exit 1; }
  done
  if [ "$mode" = routed ]; then
    ./target/release/egocensus client --addr "$addr" --csv --stats >"$tmpdir/codec-stats.csv"
    grep -q '^router_scattered_queries,1$' "$tmpdir/codec-stats.csv" \
      || { echo "FAIL: the router should scatter statement 0 and proxy statement 1"; exit 1; }
  fi
  ./target/release/egocensus client --addr "$addr" --shutdown >/dev/null
  wait "$serve_pid" || true
  serve_pid=""
done
[ "$(grep -o '\],\[' "$tmpdir/codec-direct-0.txt" | wc -l)" -eq 299 ] \
  || { echo "FAIL: the scattered statement should return 300 rows"; exit 1; }
for i in "${!codec_lines[@]}"; do
  cmp -s "$tmpdir/codec-direct-$i.txt" "$tmpdir/codec-routed-$i.txt" \
    || { echo "FAIL: routed raw reply $i differs from the direct server's"; exit 1; }
done
echo "    a line at the cap answered in under 5 s; spliced and proxied raw replies equal a direct server's byte for byte"

echo "==> continuous census smoke test (subscribe; update pushes changed rows)"
# Same 7-node fixture: INSERT EDGE (4, 6) closes a triangle, so nodes
# 4/5/6 change and the standing query must push exactly those rows.
sub_sql='SUBSCRIBE SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes'
sub_pid=""
run_subscribe_smoke() { # $1 = serve args, $2 = label
  # shellcheck disable=SC2086
  ./target/release/egocensus serve "$tmpdir/dyn.txt" --addr 127.0.0.1:0 \
    $1 >"$tmpdir/sub-serve.log" &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$tmpdir/sub-serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "FAIL: $2 server never printed its address"; exit 1; }
  ./target/release/egocensus client --addr "$addr" --csv \
    --subscribe "$sub_sql" --watch 30 >"$tmpdir/sub.log" &
  sub_pid=$!
  for _ in $(seq 1 100); do
    grep -q '^watching for' "$tmpdir/sub.log" && break
    sleep 0.1
  done
  grep -q '^watching for' "$tmpdir/sub.log" \
    || { echo "FAIL: $2 subscriber never registered"; exit 1; }
  ./target/release/egocensus client --addr "$addr" --update 'INSERT EDGE (4, 6)' >/dev/null
  for _ in $(seq 1 100); do
    grep -q '^notify subscription=1 generation=1$' "$tmpdir/sub.log" && break
    sleep 0.1
  done
  grep -q '^notify subscription=1 generation=1$' "$tmpdir/sub.log" \
    || { echo "FAIL: $2 subscriber never received the pushed frame"; exit 1; }
  # Node 5 goes 0 -> 1; the frame row is (focal, column, old, new).
  grep -q '^5,.*,0,1$' "$tmpdir/sub.log" \
    || { echo "FAIL: $2 frame should carry node 5 going 0 -> 1"; exit 1; }
  kill "$sub_pid" 2>/dev/null || true
  wait "$sub_pid" 2>/dev/null || true
  sub_pid=""
}
run_subscribe_smoke "--threads 2 --cache-mb 8" "direct"
stats=$(./target/release/egocensus client --addr "$addr" --csv --stats)
echo "$stats" | grep -q '^continuous_subscriptions,0$' \
  || { echo "FAIL: killed subscriber should have been cleaned up"; exit 1; }
echo "$stats" | grep -q '^continuous_notifications,1$' \
  || { echo "FAIL: stats should report one pushed notification"; exit 1; }
./target/release/egocensus client --addr "$addr" --shutdown >/dev/null
wait "$serve_pid"
serve_pid=""
run_subscribe_smoke "--workers 2 --threads 2 --cache-mb 8" "routed"
shard_sub_stats=$(./target/release/egocensus client --addr "$addr" --csv --stats)
echo "$shard_sub_stats" | grep -q '^router_subscriptions_created,1$' \
  || { echo "FAIL: router stats should report the subscription"; exit 1; }
echo "$shard_sub_stats" | grep -q '^router_frames_pushed,[1-9]' \
  || { echo "FAIL: router stats should report pushed frames"; exit 1; }
./target/release/egocensus client --addr "$addr" --shutdown >/dev/null
wait "$serve_pid" || true
serve_pid=""
echo "    changed rows pushed end to end, direct and through the router"

echo "==> materialized views smoke test (sidecar; EXPLAIN view:; freshness; direct + routed)"
# Same 7-node fixture. A materialized view must serve byte-identically
# to a cold recompute, stay fresh through an update without being
# re-materialized, and behave the same through the sharded router.
view_sql='SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes'
./target/release/egocensus materialize "$tmpdir/dyn.txt" \
  'MATERIALIZE clq3_unlb RADIUS 1 MATCHES' >/dev/null
[ -f "$tmpdir/dyn.txt.views" ] \
  || { echo "FAIL: materialize did not write the .views sidecar"; exit 1; }
./target/release/egocensus query "$tmpdir/dyn.txt" "EXPLAIN $view_sql" >"$tmpdir/view_explain.txt"
grep -q 'view:' "$tmpdir/view_explain.txt" \
  || { echo "FAIL: EXPLAIN should show view: provenance after adopting the sidecar"; exit 1; }
./target/release/egocensus query "$tmpdir/dyn.txt" --csv "$view_sql" >"$tmpdir/view_got.csv"
rm "$tmpdir/dyn.txt.views"
./target/release/egocensus query "$tmpdir/dyn.txt" --csv "$view_sql" >"$tmpdir/view_want.csv"
cmp -s "$tmpdir/view_want.csv" "$tmpdir/view_got.csv" \
  || { echo "FAIL: view-served rows diverge from the cold recompute"; exit 1; }
# Direct reference for the post-update answer: apply the same mutation
# offline and recompute cold.
./target/release/egocensus mutate "$tmpdir/dyn.txt" --apply 'INSERT EDGE (4, 6)' \
  --pattern 'PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }' --k 1 -o "$tmpdir/dyn_ins.txt" >/dev/null
./target/release/egocensus query "$tmpdir/dyn_ins.txt" --csv "$view_sql" >"$tmpdir/view_after_want.csv"
run_view_smoke() { # $1 = serve args, $2 = label
  # shellcheck disable=SC2086
  ./target/release/egocensus serve "$tmpdir/dyn.txt" --addr 127.0.0.1:0 \
    $1 >"$tmpdir/view-serve.log" &
  serve_pid=$!
  addr=""
  for _ in $(seq 1 100); do
    addr=$(sed -n 's/^listening on //p' "$tmpdir/view-serve.log")
    [ -n "$addr" ] && break
    sleep 0.1
  done
  [ -n "$addr" ] || { echo "FAIL: $2 view server never printed its address"; exit 1; }
  ./target/release/egocensus client --addr "$addr" \
    --materialize 'MATERIALIZE clq3_unlb RADIUS 1 MATCHES' >/dev/null
  ./target/release/egocensus client --addr "$addr" --csv "$view_sql" >"$tmpdir/view_srv.csv"
  cmp -s "$tmpdir/view_want.csv" "$tmpdir/view_srv.csv" \
    || { echo "FAIL: $2 view-served rows diverge from the direct recompute"; exit 1; }
  ./target/release/egocensus client --addr "$addr" --update 'INSERT EDGE (4, 6)' >/dev/null
  ./target/release/egocensus client --addr "$addr" --csv "$view_sql" >"$tmpdir/view_srv2.csv"
  cmp -s "$tmpdir/view_after_want.csv" "$tmpdir/view_srv2.csv" \
    || { echo "FAIL: $2 post-update view rows diverge from the direct recompute"; exit 1; }
  view_stats=$(./target/release/egocensus client --addr "$addr" --csv --stats)
  echo "$view_stats" | grep -q '^view_refresh_errors,0$' \
    || { echo "FAIL: $2 refresh must not error"; exit 1; }
  echo "$view_stats" | grep -q '^view_refreshes,[1-9]' \
    || { echo "FAIL: $2 update must refresh the pinned view in place"; exit 1; }
  echo "$view_stats" | grep -q '^view_hits,[1-9]' \
    || { echo "FAIL: $2 queries must be served by the view tier"; exit 1; }
  ./target/release/egocensus client --addr "$addr" --shutdown >/dev/null
  wait "$serve_pid" || true
  serve_pid=""
}
run_view_smoke "--threads 2 --cache-mb 8 --views off" "direct"
run_view_smoke "--workers 2 --threads 2 --cache-mb 8" "routed"
echo "    view-served answers match cold recomputes, before and after a mutation"

echo "==> planner smoke test (ANALYZE sidecar; EXPLAIN costs; dense-vs-sparse choice)"
./target/release/egocensus analyze "$tmpdir/g.txt" >/dev/null
[ -f "$tmpdir/g.txt.stats" ] \
  || { echo "FAIL: analyze did not write the .stats sidecar"; exit 1; }
./target/release/egocensus query "$tmpdir/g.txt" \
  'EXPLAIN SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes' >"$tmpdir/explain.txt"
grep -q 'stats=analyzed' "$tmpdir/explain.txt" \
  || { echo "FAIL: EXPLAIN should plan on the ANALYZE sidecar (stats=analyzed)"; exit 1; }
choices=$(grep -c 'choice' "$tmpdir/explain.txt" || true)
[ "$choices" -ge 2 ] \
  || { echo "FAIL: EXPLAIN should rank at least two algorithm alternatives"; exit 1; }
grep -q '(chosen)' "$tmpdir/explain.txt" \
  || { echo "FAIL: EXPLAIN should mark the chosen alternative"; exit 1; }
# A dense clique and a sparse path must flip the planner between the
# node-driven and pattern-driven families.
{
  echo "# egocensus graph v1"
  echo "graph undirected nodes=8"
  for i in $(seq 0 7); do
    for j in $(seq $((i + 1)) 7); do echo "edge $i $j"; done
  done
} >"$tmpdir/dense.txt"
{
  echo "# egocensus graph v1"
  echo "graph undirected nodes=30"
  for i in $(seq 0 28); do echo "edge $i $((i + 1))"; done
} >"$tmpdir/sparse.txt"
./target/release/egocensus analyze "$tmpdir/dense.txt" >/dev/null
./target/release/egocensus analyze "$tmpdir/sparse.txt" >/dev/null
tri_def='PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }'
tri_sql='EXPLAIN SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes'
dense_algo=$(./target/release/egocensus query "$tmpdir/dense.txt" --define "$tri_def" "$tri_sql" \
  | sed -n 's/.*algo=\([A-Za-z]*\).*/\1/p')
sparse_algo=$(./target/release/egocensus query "$tmpdir/sparse.txt" --define "$tri_def" "$tri_sql" \
  | sed -n 's/.*algo=\([A-Za-z]*\).*/\1/p')
case "$dense_algo" in
  Nd*) ;;
  *) echo "FAIL: dense clique should choose a node-driven algorithm (got '$dense_algo')"; exit 1 ;;
esac
case "$sparse_algo" in
  Pt*) ;;
  *) echo "FAIL: sparse path should choose a pattern-driven algorithm (got '$sparse_algo')"; exit 1 ;;
esac
# EXPLAIN plans over the focal set the WHERE clause selects, as execution
# does: three focal nodes cost less than eight.
census_cost() { # $1 = EXPLAIN statement; prints the census row's est_cost
  ./target/release/egocensus query "$tmpdir/dense.txt" --csv --define "$tri_def" "$1" \
    | awk -F, '$1 ~ /^ *census$/ { print $NF }'
}
where_cost=$(census_cost "$tri_sql WHERE ID < 3")
all_cost=$(census_cost "$tri_sql")
awk -v a="$where_cost" -v b="$all_cost" 'BEGIN { exit !(a < b) }' \
  || { echo "FAIL: EXPLAIN ... WHERE ID < 3 should cost less than the whole graph ($where_cost vs $all_cost)"; exit 1; }
# A forced algorithm the kernels refuse fails EXPLAIN with the error
# execution reports, rather than rendering a plan.
sp_def='PATTERN trisp { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }'
sp_sql='SELECT ID, COUNTSP(s, trisp, SUBGRAPH(ID, 2)) FROM nodes'
nd_bas_outcome() { # $1 = statement; prints its error, or "answered"
  if ./target/release/egocensus query "$tmpdir/dense.txt" --algorithm nd-bas --define "$sp_def" "$1" \
    >/dev/null 2>"$tmpdir/nd_bas.err"; then
    echo answered
  else
    cat "$tmpdir/nd_bas.err"
  fi
}
exec_err=$(nd_bas_outcome "$sp_sql")
explain_err=$(nd_bas_outcome "EXPLAIN $sp_sql")
case "$exec_err" in
  *"ND-BAS cannot evaluate COUNTSP"*) ;;
  *) echo "FAIL: --algorithm nd-bas should refuse COUNTSP (got '$exec_err')"; exit 1 ;;
esac
[ "$explain_err" = "$exec_err" ] \
  || { echo "FAIL: EXPLAIN under --algorithm nd-bas should fail like execution ('$explain_err' vs '$exec_err')"; exit 1; }
echo "    sidecar adopted ($choices ranked alternatives); dense -> $dense_algo, sparse -> $sparse_algo;" \
  "EXPLAIN prices the WHERE ($where_cost < $all_cost) and refuses what execution refuses"

echo "==> EXPLAIN parity (EXPLAIN fails exactly when execution fails, with the same error)"
# EXPLAIN binds a statement the way execution does: the semantic checks,
# the relation operators, the optimizer passes. So over every statement
# below, `EXPLAIN <sql>` and `<sql>` exit non-zero together and print the
# same stderr, byte for byte.
parity_def='PATTERN tri { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }'
parity_checked=0
while IFS= read -r sql; do
  exec_rc=0
  ./target/release/egocensus query "$tmpdir/g.txt" --define "$parity_def" "$sql" \
    >/dev/null 2>"$tmpdir/parity_exec.err" || exec_rc=$?
  explain_rc=0
  ./target/release/egocensus query "$tmpdir/g.txt" --define "$parity_def" "EXPLAIN $sql" \
    >/dev/null 2>"$tmpdir/parity_explain.err" || explain_rc=$?
  [ "$((exec_rc == 0))" = "$((explain_rc == 0))" ] \
    || { echo "FAIL: exit $exec_rc running, $explain_rc explaining: $sql"; exit 1; }
  cmp -s "$tmpdir/parity_exec.err" "$tmpdir/parity_explain.err" \
    || { echo "FAIL: EXPLAIN's stderr differs from execution's: $sql";
         diff "$tmpdir/parity_exec.err" "$tmpdir/parity_explain.err" || true; exit 1; }
  parity_checked=$((parity_checked + 1))
done <<'EOF'
SELECT ID, COUNTP(tri, SUBGRAPH-INTERSECTION(ID, ID, 1)) FROM nodes
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes AS a, nodes AS a
SELECT ID, COUNTP(tri, SUBGRAPH(age, 1)) FROM nodes
SELECT ID, COUNTP(tri, SUBGRAPH(x.ID, 1)) FROM nodes
SELECT a.ID, COUNTP(tri, SUBGRAPH(a.ID, 1)) FROM nodes a, nodes b
SELECT a.ID, COUNTP(tri, SUBGRAPH-INTERSECTION(a.ID, a.ID, 1)) FROM nodes a, nodes b
SELECT ID FROM nodes WHERE FOO(ID) > 1
SELECT ID FROM nodes ORDER BY 5
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes WHERE ID < 100 ORDER BY 2 DESC LIMIT 20
SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)), COUNTP(single_edge, SUBGRAPH(ID, 2)) FROM nodes
SELECT ID, COUNTSP(s, tri, SUBGRAPH(ID, 1)) FROM nodes
SELECT a.ID, COUNTP(tri, SUBGRAPH-UNION(a.ID, b.ID, 1)) FROM nodes a, nodes b WHERE a.ID < 10 AND b.ID < 10 ORDER BY 2 DESC LIMIT 2
EOF
echo "    $parity_checked statements: EXPLAIN and execution fail alike, with identical stderr"

echo "==> top-k and ID ranges (LIMIT k is a prefix of the full order; a range equals its evaluated twin)"
# ORDER BY ... LIMIT selects the top rows before it projects them, so its
# CSV must be the first k rows of the unlimited statement's, for k past n
# too. A WHERE that is only an ID range binds the range without the
# per-row interpreter; `NOT (ID < a OR ID > b)` is the same set, evaluated.
topk_sql='SELECT ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 2 DESC, 1'
./target/release/egocensus query "$tmpdir/g.txt" --csv "$topk_sql" >"$tmpdir/order_all.csv"
order_n=$(($(wc -l <"$tmpdir/order_all.csv") - 1))
[ "$order_n" -eq 300 ] || { echo "FAIL: the unlimited statement should return 300 rows"; exit 1; }
for k in 0 1 10 $((order_n + 5)); do
  ./target/release/egocensus query "$tmpdir/g.txt" --csv "$topk_sql LIMIT $k" >"$tmpdir/order_k.csv"
  head -n $((k + 1)) "$tmpdir/order_all.csv" | cmp -s - "$tmpdir/order_k.csv" \
    || { echo "FAIL: LIMIT $k is not the first $k rows of the unlimited order"; exit 1; }
done
range_select='SELECT ID, LABEL, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) FROM nodes WHERE'
for bounds in "40 120" "-5 7" "290 400" "9 3"; do
  read -r lo hi <<<"$bounds"
  ./target/release/egocensus query "$tmpdir/g.txt" --csv \
    "$range_select ID >= $lo AND ID <= $hi ORDER BY 3 DESC LIMIT 20" >"$tmpdir/range.csv"
  ./target/release/egocensus query "$tmpdir/g.txt" --csv \
    "$range_select NOT (ID < $lo OR ID > $hi) ORDER BY 3 DESC LIMIT 20" >"$tmpdir/range_twin.csv"
  cmp -s "$tmpdir/range.csv" "$tmpdir/range_twin.csv" \
    || { echo "FAIL: WHERE ID >= $lo AND ID <= $hi differs from its evaluated twin"; exit 1; }
done
echo "    LIMIT 0/1/10/n+5 are prefixes of the full order; four ID ranges equal their twins byte for byte"

echo "==> census_bench compile surface + smoke suite (the benchmark, unmodified, against this workspace)"
# BENCHMARK.json's command builds census_bench from its own manifest, so
# a refactor that breaks what it compiles against, or its in-run
# correctness gate, must fail here rather than in the pipeline.
cargo build --release --offline --manifest-path census_bench/Cargo.toml
./census_bench/target/release/census_bench --all --smoke --out "$tmpdir/bench" >"$tmpdir/bench.log" 2>&1 \
  || { tail -n 40 "$tmpdir/bench.log"; echo "FAIL: census_bench --all --smoke"; exit 1; }
echo "    census_bench builds and its smoke suite passes"

echo "==> verify OK"
