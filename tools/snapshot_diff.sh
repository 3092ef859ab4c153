#!/usr/bin/env bash
# Byte-identity gate in one command: snapshot the CLI outputs of a revision
# and of the working tree, then print `diff -r` of the two snapshots.
#
#     tools/snapshot_diff.sh REV [OUTDIR]
#
# REV is checked out from `git archive` into a temporary directory, and the
# working tree's tools/cli_snapshot.py is copied into it, so both sides run
# the same call set.  The snapshots are kept in OUTDIR/rev and OUTDIR/tree
# (emptied first) when OUTDIR is given, else removed with the checkout.
# Exits 2 when either side stops before writing its exit-codes.txt, else
# with the status of `diff -r` (0 when every output and exit code is
# identical, 1 when some differ), or non-zero when REV cannot be checked out.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
    sed -n '2,13s/^# \{0,1\}//p' "$0" >&2
    exit 2
fi
rev=$1
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
out=${2:-$work/snapshots}
rm -rf "$out/rev" "$out/tree"
mkdir -p "$work/checkout" "$out"
out=$(cd "$out" && pwd)

git -C "$root" archive "$rev" | tar -x -C "$work/checkout"
cp "$root/tools/cli_snapshot.py" "$work/checkout/tools/cli_snapshot.py"

# cli_snapshot.py exits 1 when a call's exit code is not the expected one;
# exit-codes.txt records the codes, so the diff below shows any change.
python3 "$work/checkout/tools/cli_snapshot.py" "$out/rev" \
    || echo "snapshot_diff: a call of $rev exited unexpectedly" >&2
python3 "$root/tools/cli_snapshot.py" "$out/tree" \
    || echo "snapshot_diff: a call of the working tree exited unexpectedly" >&2

# A side that crashes stops before exit-codes.txt, and two equally
# truncated snapshots would otherwise compare equal.
for side in rev tree; do
    if [[ ! -f "$out/$side/exit-codes.txt" ]]; then
        echo "snapshot_diff: the $side snapshot stopped early (no exit-codes.txt)" >&2
        exit 2
    fi
done

cd "$out"
diff -r rev tree
