#!/usr/bin/env bash
# Re-run every program listed in tests/program_goldens.txt and compare its
# stdout with tests/fixtures/golden/stdout/<name>.txt. Each golden that
# would change gets its unified diff printed. Nothing is rewritten unless
# --write is given; then each changed golden is replaced after its diff.
#
# Usage: scripts/regen_goldens.sh [--write] [BUILD_DIR]   (default: build)
# Exit status: 0 when every golden matches (or was rewritten), 1 otherwise.
set -euo pipefail
set -f  # program arguments such as ^$ are passed as written
cd "$(dirname "$0")/.."

write=0
if [ "${1:-}" = "--write" ]; then
  write=1
  shift
fi
build=${1:-build}

changed=0
while read -r name target args; do
  case "$name" in '' | '#'*) continue ;; esac
  bin=
  for dir in examples bench; do
    if [ -x "$build/$dir/$target" ]; then bin="$build/$dir/$target"; fi
  done
  if [ -z "$bin" ]; then
    echo "$target: not built under $build" >&2
    exit 1
  fi
  golden="tests/fixtures/golden/stdout/$name.txt"
  actual=$(mktemp)
  errors=$(mktemp)
  # Split $args like the ctest case does; stdin stays off the list file.
  # shellcheck disable=SC2086
  if ! "$bin" $args </dev/null >"$actual" 2>"$errors"; then
    cat "$errors" >&2
    echo "$name: $bin $args failed" >&2
    exit 1
  fi
  rm -f "$errors"
  if [ -f "$golden" ] && cmp -s "$golden" "$actual"; then
    rm -f "$actual"
    continue
  fi
  changed=$((changed + 1))
  old="$golden"
  [ -f "$old" ] || old=/dev/null
  diff -u --label "$golden" --label "$name (now)" "$old" "$actual" || true
  if [ "$write" -eq 1 ]; then
    mv "$actual" "$golden"
    echo "rewrote $golden"
  else
    rm -f "$actual"
  fi
done <tests/program_goldens.txt

if [ "$changed" -eq 0 ]; then
  echo "all program goldens match"
elif [ "$write" -eq 0 ]; then
  echo "$changed golden(s) differ; rerun with --write to accept the diffs above"
  exit 1
fi
