#!/usr/bin/env bash
# request == solve/round: what `sapkit_cli request` prints for an answer sapd
# served must be byte-identical to what the local subcommand prints for the
# same flags. sapd listens on an ephemeral port (read back from its
# "sapd listening on" line), so parallel ctest runs never collide.
#
# usage: cli_identity_test.sh <path to sapkit_cli>
set -euo pipefail

cli=$1
work=$(mktemp -d)
pid=
cleanup() {
  if [ -n "$pid" ]; then
    kill -TERM "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
  fi
  rm -rf "$work"
}
trap cleanup EXIT

: >"$work/serve.out"  # exists before the background shell opens it
# Exactly the serve flags sapbench starts sapd with (sapbench/run.py
# SERVER_FLAGS), so this test also pins the benchmark's command line.
"$cli" serve --port 0 --threads 4 --shards 1 --queue 64 \
  --cache-entries 4096 >"$work/serve.out" 2>"$work/serve.err" &
pid=$!
port=
for _ in $(seq 1 200); do
  port=$(sed -n 's/^sapd listening on .*:\([0-9][0-9]*\)$/\1/p' \
    "$work/serve.out")
  [ -n "$port" ] && break
  sleep 0.05
done
if [ -z "$port" ]; then
  echo "sapd never announced its port" >&2
  cat "$work/serve.err" >&2
  exit 1
fi

# A uniform-capacity path instance (the generator's default profile), so
# every path algo applies, uniform included.
"$cli" gen --edges 8 --tasks 12 --seed 42 >"$work/path.txt"
cat >"$work/ring.txt" <<'EOF'
sap-ring v1
edges 6
capacities 5 6 7 6 5 8
tasks 6
0 3 2 5
2 5 3 4
4 1 2 6
5 2 4 3
1 4 1 2
3 0 3 7
EOF

# same FILE SUBCOMMAND [FLAG...]: `request FLAG... FILE` prints the same
# non-empty stdout as `SUBCOMMAND FLAG... FILE`.
same() {
  local file=$1 sub=$2
  shift 2
  "$cli" request --port "$port" "$@" "$file" >"$work/remote.out"
  "$cli" "$sub" "$@" "$file" >"$work/local.out"
  if [ ! -s "$work/local.out" ] ||
    ! cmp "$work/remote.out" "$work/local.out"; then
    echo "FAIL: request != $sub for: $* $(basename "$file")" >&2
    exit 1
  fi
  echo "ok: $sub $* $(basename "$file")"
}

for algo in full exact uniform; do
  same "$work/path.txt" solve --algo "$algo"
done
same "$work/path.txt" solve --certify
same "$work/ring.txt" solve --ring
same "$work/ring.txt" solve --kind ring --certify
same "$work/path.txt" round --kind round-ufp
same "$work/path.txt" round --kind round-sap
