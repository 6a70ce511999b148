#!/usr/bin/env bash
# `solve` and `round` honour --deadline-ms exactly as sapd honours a
# request's deadline_ms: a budget too small for the chosen solver degrades
# the answer (stderr notes the skipped stage, stdout is still a verified
# solution), a budget past the clock's range means unlimited, and a value
# int64 cannot hold is a usage error (exit 2).
#
# usage: cli_deadline_test.sh <path to sapkit_cli>
set -euo pipefail

cli=$1
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Uniform capacities (the generator's default profile) and many tasks: the
# exact profile DP, the SAP-U large-task DP and the Round-SAP oracle all
# take far longer than 1 ms here.
"$cli" gen --edges 14 --tasks 200 --seed 7 >"$work/path.txt"

# degrades SKIPPED SUBCOMMAND [FLAG...]: a 1 ms budget cuts SKIPPED.
degrades() {
  local skipped=$1 sub=$2
  shift 2
  "$cli" "$sub" "$@" --deadline-ms 1 "$work/path.txt" \
    >"$work/out" 2>"$work/err"
  if [ ! -s "$work/out" ] ||
    ! grep -q "note: deadline expired.*$skipped" "$work/err"; then
    echo "FAIL: $sub $* --deadline-ms 1 did not degrade ($skipped)" >&2
    cat "$work/err" >&2
    exit 1
  fi
  echo "ok: $sub $* --deadline-ms 1 skips $skipped"
}

degrades solve.exact solve --algo exact
degrades solve.uniform solve --algo uniform
degrades solve.exact round --kind round-sap --algo exact

# The largest int64 budget saturates to unlimited: never degraded.
"$cli" solve --deadline-ms 9223372036854775807 "$work/path.txt" \
  >"$work/out" 2>"$work/err"
if grep -q "deadline expired" "$work/err"; then
  echo "FAIL: --deadline-ms INT64_MAX degraded" >&2
  exit 1
fi
echo "ok: --deadline-ms INT64_MAX is unlimited"

# One past int64: a usage error, not a silent wrap to "no deadline". (serve
# would start listening if it accepted the value; solve runs first and
# stops the script before that.)
for args in "solve $work/path.txt --deadline-ms" \
  "serve --port 0 --default-deadline-ms"; do
  status=0
  # shellcheck disable=SC2086
  "$cli" $args 9223372036854775808 >/dev/null 2>"$work/err" || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: $args 2^63 exited $status, want 2" >&2
    exit 1
  fi
  echo "ok: ${args%% *} ${args##* } 2^63 is a usage error"
done
