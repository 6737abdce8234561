#!/usr/bin/env bash
# tools/same_bytes.sh <parent-ccq> <change-ccq>
#
# The parent-vs-change comparison a refactor has to pass: every argv below is
# run on both release binaries and stdout, stderr and the exit code must be
# identical; a recording made by either binary must replay `ok` on the other.
# Prints one line per row and exits 1 if any row differs.
#
# The rows: the five BENCHMARK.json argvs at seed 7, every argv of a CI `cmp`
# smoke, every registry protocol with `--checkpoint-every 1 --node-hashes`
# (unsharded, `4:edgecut --parallel-apply`, `4:ferry=6 --wavefront` — these
# prove message `Debug` forms, `state_token` and the canonical state, i.e. the
# `.ccqrec` format, untouched), the balancing networks at non-default widths
# under arrivals, jitter and a striped cut, the tree walks on four tree-like
# topologies under jitter and a striped cut, three slow-ferry plans over jitter
# or per-link delays (two policies on one wheel), an adaptive + split + fault
# open load, four bisects, `run --exp all`, the sweep-table drivers (t4,
# t11-t15) and the t9 ablations (t9e's density sweep on K_512) at `--full`
# scale, `list`, `--help`, record -> replay, and the
# greedy edge cut at 2 to 7 shards on a 14 400-node torus and on the star,
# complete, hypercube, caterpillar and 3-d mesh families (the picks, so the
# cross-shard counts, must not move).
# `--parallel-apply` and `--wavefront[:lag=d]` are retired spellings: every
# sharded round runs the one lockstep executor and its serialized walk. Their
# rows stay so that argvs and recordings holding them keep their bytes.
# `--timing` prints wall-clock and is left out.
set -u

if [ "$#" -ne 2 ]; then
    echo "usage: tools/same_bytes.sh <parent-ccq> <change-ccq>" >&2
    exit 2
fi
parent=$(realpath "$1")
change=$(realpath "$2")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir "$work/parent" "$work/change"
rows=0
differ=0

# same <argv...>: run `ccq <argv>` on both binaries, each in its own
# directory (so files an argv writes have the same relative name on both
# sides), and compare the three things a caller can see.
same() {
    rows=$((rows + 1))
    (cd "$work/parent" && "${PIN[@]}" "$parent" "$@" >out 2>err; echo $? >code)
    (cd "$work/change" && "${PIN[@]}" "$change" "$@" >out 2>err; echo $? >code)
    local what=""
    for part in out err code; do
        cmp -s "$work/parent/$part" "$work/change/$part" || what="$what $part"
    done
    if [ -z "$what" ]; then
        echo "same  [exit $(cat "$work/change/code")] ccq$(printf ' %q' "$@")"
    else
        differ=$((differ + 1))
        echo "DIFF ($what ) ccq$(printf ' %q' "$@")"
    fi
}
PIN=()

# --- the five BENCHMARK.json workloads, seed 7 (benchmark/src/workloads.rs)
same sweep --topo torus2d:16 --proto all --json -
same sweep --topo torus2d:16 \
    --proto arrow,arrow+notify,combining-queue,central-counter,combining-tree,counting-network,periodic-network,toggle-tree \
    --arrival poisson:rate=0.01:seed=7 --delay jitter:max=3:seed=5 \
    --admission adaptive:target=32 --priority split:frac=0.25:seed=3 --json -
same sweep --topo torus2d:160 --proto central-counter,combining-tree --pattern tail:64 \
    --arrival poisson:rate=0.5:seed=7 --json -
PIN=(taskset -c 0)
same sweep --topo torus2d:16 --proto counting-network,central-counter,combining-tree,arrow \
    --shards 2:edgecut:ferry=6 --parallel-apply --json -
PIN=()
same run --exp fig1,t3,t5,t7,t8,f2,t10 --full

# --- every CI smoke argv (.github/workflows/ci.yml), `--json -` for a file
same sweep --topo mesh2d --proto arrow,central-counter --json -
same sweep --arrival poisson:rate=0.2 --delay jitter:max=3 --seed 7 --json -
same sweep --arrival poisson:rate=0.8 --json -
same sweep --arrival poisson:rate=0.8 --admission open --json -
same sweep --admission droptail:bound=64 --json -
same sweep --topo mesh2d:6 --arrival poisson:rate=0.9 --admission droptail:bound=8 --json -
same sweep --topo mesh2d:5 --arrival poisson:rate=0.85 --qqc mean,max,p99 --json -
same sweep --topo mesh2d:5 --arrival poisson:rate=0.85 --qqc mean,max,p99
same sweep --topo torus2d:3 --arrival poisson:rate=0.5 --priority split:frac=0.25:seed=11 \
    --fault crash:at=4:node=2:recover=9 --admission pernode:bound=8:protect=1 --json -
same sweep --topo mesh2d:4 --proto arrow --json -
same sweep --topo mesh2d:4 --proto arrow --priority uniform --json -
same sweep --topo torus2d:6 --json -
same sweep --topo torus2d:6 --shards 1 --json -
same sweep --topo torus2d:6 --shards 4:edgecut --json -
same sweep --topo torus2d:6 --shards 4 --dense-scan --json -
same sweep --topo torus2d:6 --shards 4 --serial-transmit --json -
same sweep --shards 4 --json -
same sweep --shards 4 --parallel-apply --json -
same sweep --topo torus2d:6 --shards 4:edgecut --parallel-apply --json -
same sweep --topo torus2d:6 --shards 4:edgecut --wavefront --json -
same sweep --topo torus2d:6 --shards 4:edgecut:ferry=6 --json -
same sweep --topo torus2d:6 --shards 4:edgecut:ferry=6 --wavefront:lag=4 --json -
same sweep --topo torus2d:6 --shards 4:edgecut:ferry=6 --wavefront --json -
same sweep --topo torus2d:6 --wavefront --json -
same sweep --topo torus2d:6 --shards 4:ferry=2 --wavefront:lag=5 --json -
same sweep --topo torus2d:6 --shards 4:edgecut:ferry=6 --parallel-apply --json -
same sweep --topo torus2d:6 --shards 4:edgecut:ferry=6 --parallel-apply --wavefront --json -
PIN=(taskset -c 0)
same sweep --topo torus2d:6 --shards 4:edgecut:ferry=6 --parallel-apply --json -
same sweep --topo torus2d:6 --shards 4:edgecut:ferry=6 --parallel-apply --wavefront --json -
PIN=()
same run --exp t14
same run --exp t15

# --- the greedy edge cut beyond test sizes: a 14 400-node torus at 2 and 5
# shards, and the hub, dense, cube and leafy families at 3 and 7
same sweep --topo torus2d:120 --proto arrow,central-counter --pattern tail:64 \
    --shards 2:edgecut,5:edgecut --json -
same sweep --topo star:300,complete:64,hypercube:8,caterpillar:40:3,mesh3d:7 \
    --proto arrow,combining-tree --shards 3:edgecut,7:edgecut --json -

# --- checkpoint and node-digest streams of every registry protocol
same sweep --topo torus2d:4 --proto all --checkpoint-every 1 --node-hashes --json -
same sweep --topo torus2d:4 --proto all --checkpoint-every 1 --node-hashes \
    --shards 4:edgecut --parallel-apply --json -
same sweep --topo torus2d:4 --proto all --checkpoint-every 1 --node-hashes \
    --shards 4:ferry=6 --wavefront --json -
same sweep --topo torus2d:4 --proto all --checkpoint-every 1 --node-hashes \
    --arrival poisson:rate=0.5:seed=7 --admission adaptive:target=3 --json -

# --- the balancing networks beyond their default widths (a toggle tree's
# token spells its wire `node_idx`, a counting network's `wire`), under
# open arrivals, intra-shard jitter and a striped shard cut
nets=toggle-tree:2,toggle-tree:64,counting-network:8,periodic-network:8
same sweep --topo torus2d:6 --proto $nets --checkpoint-every 1 --node-hashes \
    --arrival poisson:rate=0.5:seed=7 --json -
same sweep --topo torus2d:6 --proto $nets --checkpoint-every 1 --node-hashes \
    --delay jitter:max=3:seed=5 --json -
same sweep --topo torus2d:6 --proto $nets --checkpoint-every 1 --node-hashes \
    --shards 2:stripe --json -

# --- the tree walks (the central walk, arrow's first arrows, a network's
# replies) on shallow, deep and bushy trees, with a random request set so
# that route ids map to non-contiguous nodes
walks=central-queue,central-counter,arrow,arrow+notify,counting-network:8
trees=star:9,list:12,tree:3:3,caterpillar:6:2
same sweep --topo $trees --proto $walks --pattern random:0.5:3 --checkpoint-every 1 \
    --node-hashes --delay jitter:max=3:seed=5 --json -
same sweep --topo $trees --proto $walks --pattern random:0.5:3 --checkpoint-every 1 \
    --node-hashes --shards 2:stripe --json -

# --- two delay policies sharing one wheel: intra jitter or per-link delays
# under a slower ferry on the shard cut
same sweep --topo torus2d:6 --proto all --delay jitter:max=3:seed=5 --shards 4:edgecut:ferry=6 \
    --checkpoint-every 1 --node-hashes --json -
same sweep --topo torus2d:6 --arrival poisson:rate=0.5:seed=7 --delay jitter:max=3:seed=5 \
    --admission pernode:bound=4:protect=1 --shards 3:stripe:ferry=2 --checkpoint-every 1 --json -
same sweep --topo mesh2d:5 --proto all --delay perlink:max=4:seed=3 --shards 2:contig:ferry=5 \
    --fault crash:at=4:node=2:recover=9 --checkpoint-every 1 --node-hashes --json -

# --- an open load with everything the paced driver carries
same sweep --topo torus2d:6 --arrival poisson:rate=0.5:seed=7,bursty:rate=0.7:on=6:off=12,hotspot:rate=0.3:s=1.4 \
    --delay jitter:max=3:seed=5 --admission adaptive:target=8,delayretry:bound=6:backoff=2 \
    --priority split:frac=0.25:seed=11 --fault crash:at=4:node=2:recover=9 --repeats 2 --seed 7 --json -
same sweep --topo torus2d:6 --arrival poisson:rate=0.5 --admission pernode:bound=4:protect=1 \
    --priority split:frac=0.5:seed=2 --shards 4:edgecut --json -

# --- the CI bisects, and the retired spellings' against the argvs without them
same bisect "--parallel-apply" "" --topo torus2d:3 --proto arrow
same bisect "--shards 4 --parallel-apply" "--shards 4" --topo torus2d:3 --proto arrow
same bisect "--shards 4:ferry=6 --wavefront:lag=4" "--shards 4:ferry=6" --topo torus2d:6 --proto arrow
same bisect "--shards 2:contig:ferry=10" "--shards 2:contig" --topo list:8 --proto arrow

# --- the experiment drivers (the sweep tables at both scales) and the two
# help texts
same run --exp all
same run --exp t4,t11,t12,t13,t14,t15 --full
same run --exp t9 --full
same list
same --help

# --- record on both (files and output identical), then replay each side's
# recording on the other binary
n=0
record() {
    n=$((n + 1))
    same record "$@" --rec "run$n.ccqrec" --json -
    rows=$((rows + 1))
    if cmp -s "$work/parent/run$n.ccqrec" "$work/change/run$n.ccqrec"; then
        echo "same  [file] run$n.ccqrec"
    else
        differ=$((differ + 1))
        echo "DIFF ( file ) run$n.ccqrec"
    fi
    cp "$work/parent/run$n.ccqrec" "$work/change/parent$n.ccqrec"
    cp "$work/change/run$n.ccqrec" "$work/parent/parent$n.ccqrec"
    # parent replays the change's recording, change replays the parent's:
    # same output, and the exit code says `ok`.
    same replay "parent$n.ccqrec" --json -
    if [ "$(cat "$work/change/code")" != 0 ]; then
        differ=$((differ + 1))
        echo "DIFF ( replay failed ) parent$n.ccqrec on the change binary"
    fi
}
record --topo list:9 --proto arrow --pattern tail:3 --seed 7
record --topo mesh2d:5 --proto crdt-counter --arrival poisson:rate=0.85
record --topo torus2d:3 --proto arrow --arrival poisson:rate=0.5 \
    --priority split:frac=0.25:seed=11 --fault crash:at=4:node=2:recover=9
record --topo torus2d:4 --proto all --arrival poisson:rate=0.5 --admission adaptive:target=3 \
    --shards 2:edgecut --checkpoint-every 1
record --topo torus2d:4 --proto arrow,counting-network --shards 4 --parallel-apply

if [ "$differ" -ne 0 ]; then
    echo "$differ of $rows rows differ"
    exit 1
fi
echo "all $rows rows identical"
