#!/bin/sh
# study-identity: check that the working tree's cmd/sweep prints the
# same study tables as a base commit's, byte for byte.
#
# Usage: scripts/study-identity.sh [BASE]    (BASE defaults to HEAD~1)
#
# Builds BASE's cmd/sweep in a temporary git worktree, which is removed
# on exit, and the working tree's cmd/sweep, then runs both on the
# margins, faults, degrade, sched and optgap studies at small sample
# sizes and fails on any difference in their output or exit status. A
# change that alters a study's output on purpose fails it too, which is
# why this is a make target and not a CI step.
set -eu

cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
rev=$(git rev-parse --verify --quiet "$base^{commit}") \
    || { echo "study-identity: unknown revision $base" >&2; exit 2; }

tmp=$(mktemp -d)
cleanup() {
    git worktree remove --force "$tmp/base" 2>/dev/null || true
    rm -rf "$tmp"
}
trap cleanup EXIT
# Some shells (dash) skip the EXIT trap when a signal kills them; exit
# on the signal instead, so the cleanup still runs.
trap 'exit 129' HUP
trap 'exit 130' INT
trap 'exit 143' TERM

git worktree add --detach --quiet "$tmp/base" "$rev"
(cd "$tmp/base" && go build -o "$tmp/sweep.base" ./cmd/sweep)
go build -o "$tmp/sweep.head" ./cmd/sweep

status=0
while read -r name args; do
    for side in base head; do
        # Word splitting of $args is intended: it holds the flags.
        # shellcheck disable=SC2086
        if "$tmp/sweep.$side" $args >"$tmp/$name.$side" 2>"$tmp/$name.$side.err"; then
            echo "exit 0" >>"$tmp/$name.$side"
        else
            echo "exit $?" >>"$tmp/$name.$side"
        fi
    done
    if cmp -s "$tmp/$name.base" "$tmp/$name.head"; then
        echo "study-identity: $name ($args): identical"
    else
        echo "study-identity: $name ($args): output differs from $base" >&2
        diff "$tmp/$name.base" "$tmp/$name.head" | head -20 >&2 || true
        status=1
    fi
done <<'EOF'
margins -study margins -graphs 32
faults -study faults -graphs 64
degrade -study degrade -graphs 24 -wtimeout 30s
sched -study sched -graphs 64
optgap -study optgap -graphs 64
EOF

exit "$status"
