#!/bin/sh
# Export audit: lists every `val` in lib/*/*.mli that no other
# compilation unit references, read from the typed trees (.cmt), not
# from grep.  Two groups: "tests only" (referenced from test/ and
# nowhere else outside the module) and "none".  Takes no flags, only
# reports, and always exits 0.  Run from anywhere inside the repo:
#
#   sh scripts/exports_audit.sh
#
# A value reached only through a functor application (or a first-class
# module) shows no reference; rebuilding after deleting it settles it.
cd "$(dirname "$0")/.."

# Without @check the executables' main modules have no .cmt.
dune build @check 2>&1 || echo "exports_audit: dune build @check failed; the report may be stale"

refs=$(mktemp)
trap 'rm -f "$refs"' EXIT

# ocamlcmt resolves another unit's declarations only from the build
# root (elsewhere it fails with "Cannot find module").  Each reference
# to a declaration in an .mli becomes "MLI LINE FROM", FROM being the
# source file that holds the reference.
(
  cd _build/default || exit 0
  find . -name '*.cmt' | sort | while read -r cmt; do
    ocamlcmt -annot -o - "$cmt" 2>/dev/null
  done
) | awk '
  /^"/ { gsub(/"/, "", $1); from = $1; next }
  # operator names hold spaces ("( >= )"): find the location by pattern
  $1 == "int_ref" && match($0, /"lib\/[^"]*\.mli" [0-9]+/) {
    loc = substr($0, RSTART, RLENGTH); gsub(/"/, "", loc); print loc, from
  }' | sort -u >"$refs"

# A reference counts when it comes from another unit: its source is not
# the .ml beside the .mli.
for mli in lib/*/*.mli; do
  grep -n '^[[:space:]]*val ' "$mli" | sed "s|^\([0-9]*\):|$mli \1 |"
done | awk -v refs="$refs" '
  BEGIN {
    while ((getline line < refs) > 0) {
      split(line, f, " ")
      own = f[1]; sub(/\.mli$/, ".ml", own)
      if (f[3] == own || f[3] == f[1]) continue
      key = f[1] ":" f[2]
      if (f[3] ~ /^test\//) tests[key] = 1; else other[key] = 1
    }
  }
  {
    key = $1 ":" $2
    name = $0; sub(/^[^ ]+ [0-9]+ [[:space:]]*val /, "", name); sub(/[[:space:]]*:.*$/, "", name)
    total++
    if (key in other) next
    if (key in tests) t[++nt] = key "  " name; else n[++nn] = key "  " name
  }
  END {
    printf "%d vals in lib/*/*.mli; %d referenced only from test/, %d from no other unit\n", total, nt, nn
    printf "\n== tests only (%d) ==\n", nt
    for (i = 1; i <= nt; i++) print t[i]
    printf "\n== none (%d) ==\n", nn
    for (i = 1; i <= nn; i++) print n[i]
  }'
exit 0
