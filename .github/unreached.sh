#!/usr/bin/env bash
# Lists the declared functions (non-test, outside testdata) that no
# shipped binary links: every cmd/*, examples/* and bench binary is built
# with inlining off and its symbols are compared with the declarations.
# Run from the repository root; prints one fully qualified name per line.
set -euo pipefail
out=$(mktemp -d)
trap 'rm -r "$out"' EXIT
for d in cmd/* examples/* bench; do
  go -C "$d" build -gcflags=all=-l -o "$out/bin" .
  go tool nm "$out/bin" | awk -v main="repro/$d" '$2 ~ /^[Tt]$/ {
    s = $0; sub(/^ *[0-9a-f]+ [Tt] /, "", s); sub(/\[.*\]/, "", s)
    sub(/^main\./, main ".", s); if (s ~ /^repro\//) print s }'
done | sort -u > "$out/linked"
git ls-files '*.go' ':!:*_test.go' ':!:*/testdata/*' ':!:bench/*' | xargs awk '
  FNR == 1 { pkg = FILENAME; sub(/\/[^\/]*$/, "", pkg); pkg = "repro/" pkg }
  /^func / { s = substr($0, 6)
    if (s ~ /^\(/) { r = s; sub(/\).*/, "", r); n = split(substr(r, 2), f, " "); t = f[n]
      sub(/^\([^)]*\) */, "", s); sub(/[^A-Za-z0-9_].*/, "", s)
      print pkg "." (t ~ /^\*/ ? "(" t ")" : t) "." s }
    else { sub(/[^A-Za-z0-9_].*/, "", s); if (s != "init") print pkg "." s } }' \
  | sort -u > "$out/declared"
comm -23 "$out/declared" "$out/linked"
