#!/bin/sh
# Golden-output check: run a program without arguments and require its
# stdout to equal a committed golden file byte for byte.
#
# Usage: golden_stdout.sh <program> <golden file>
set -u
out=$(mktemp "${TMPDIR:-/tmp}/qpsa-golden.XXXXXX") || exit 1
trap 'rm -f "$out"' EXIT
"$1" > "$out" || { echo "$1 exited with status $?"; exit 1; }
diff -u "$2" "$out" || exit 1
echo "$(basename "$1") matches $2"
