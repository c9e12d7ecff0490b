#!/usr/bin/env bash
# docs_check.sh — CI documentation gate.
#
# 1. Every relative link in tracked *.md files must resolve to an
#    existing file or directory.
# 2. The emserve flag documentation must match the binary: every flag
#    `emserve -help` prints is documented in docs/OPERATIONS.md, every
#    flag the OPERATIONS table documents exists, and every
#    parenthesized `(-flag)` reference in README.md names a real flag.
# 3. Every route the emserve server registers is documented under its
#    canonical /v1 path in the OPERATIONS endpoint table.
# 4. The testable Example functions of the facade keep compiling and
#    producing their pinned output.
# 5. Knob ratchet: the emserve flag count, the resolve.Options field
#    count and the facade's exported-name count stay at or under their
#    ceilings.
# 6. Every Test…, Benchmark… and Fuzz… name cited in a tracked *.md
#    file is a func in some tracked _test.go. The top-level notes
#    (every *.md at the repository root except README.md, e.g. the
#    change log CHANGES.md and ROADMAP.md) may name retired tests.
# 7. No backticked bare emserve route (`/stats`, `GET /readyz`, …) in
#    README.md or docs/*.md: every route lives under /v1 and the bare
#    paths answer 404. An **Upgrading:** paragraph, which names the
#    removed paths on purpose, is exempt.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# --- 1. relative markdown links -------------------------------------
while IFS= read -r md; do
  dir=$(dirname "$md")
  while IFS= read -r link; do
    [ -n "$link" ] || continue
    case "$link" in
      http://* | https://* | mailto:* | '#'*) continue ;;
    esac
    target=${link%%#*}   # drop the anchor
    target=${target%% *} # drop a link title
    [ -n "$target" ] || continue
    if [ ! -e "$dir/$target" ]; then
      echo "docs_check: broken relative link in $md: ($link)" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -E 's/^\]\(//; s/\)$//')
done < <(git ls-files '*.md')

# --- 2. emserve flag drift ------------------------------------------
help=$(go run ./cmd/emserve -help 2>&1) || {
  echo "docs_check: emserve -help failed:" >&2
  printf '%s\n' "$help" >&2
  exit 1
}
actual=$(printf '%s\n' "$help" | grep -oE '^  -[a-z-]+' | tr -d ' ' | sort)
if [ -z "$actual" ]; then
  echo "docs_check: could not parse any flags out of emserve -help" >&2
  exit 1
fi

# Every real flag appears in the OPERATIONS reference table.
while IFS= read -r f; do
  if ! grep -qF -- "\`$f\`" docs/OPERATIONS.md; then
    echo "docs_check: emserve flag $f is missing from docs/OPERATIONS.md" >&2
    fail=1
  fi
done <<<"$actual"

# Every flag the OPERATIONS table documents still exists.
while IFS= read -r f; do
  [ -n "$f" ] || continue
  if ! grep -qxF -- "$f" <<<"$actual"; then
    echo "docs_check: docs/OPERATIONS.md documents unknown emserve flag $f" >&2
    fail=1
  fi
done < <(grep -oE '^\| `-[a-z-]+`' docs/OPERATIONS.md | grep -oE -- '-[a-z-]+' | sort -u)

# Every parenthesized (`-flag`) reference in the README knob tables
# names a real flag.
while IFS= read -r f; do
  [ -n "$f" ] || continue
  if ! grep -qxF -- "$f" <<<"$actual"; then
    echo "docs_check: README.md references unknown emserve flag $f" >&2
    fail=1
  fi
done < <(grep -oE '\(`-[a-z-]+`\)' README.md | grep -oE -- '-[a-z-]+' | sort -u)

# --- 3. emserve /v1 route coverage ----------------------------------
# Every route the server registers (the routes table in
# cmd/emserve/server.go) must be documented under its /v1 path in the
# OPERATIONS endpoint table.
routes=$(grep -oE '\{"(GET|POST)", "/[^"]*"' cmd/emserve/server.go | sed -E 's/.*, "//; s/"$//')
if [ -z "$routes" ]; then
  echo "docs_check: could not parse the route table out of cmd/emserve/server.go" >&2
  exit 1
fi
while IFS= read -r p; do
  [ -n "$p" ] || continue
  if ! grep -qF -- "/v1$p" docs/OPERATIONS.md; then
    echo "docs_check: route /v1$p is missing from docs/OPERATIONS.md" >&2
    fail=1
  fi
done <<<"$routes"

# --- 4. the documented examples still run ---------------------------
if ! go test . -run Example -count=1 >/dev/null; then
  echo "docs_check: facade Example tests failed (go test . -run Example)" >&2
  fail=1
fi

# --- 5. knob ratchet --------------------------------------------------
# The emserve flag count, the resolve.Options field count and the
# facade's exported-name count may only shrink: adding a knob or a
# name means raising its ceiling here, in the same change, on purpose.
max_flags=26
max_options=13
max_facade=62
nflags=$(printf '%s\n' "$actual" | wc -l)
# Exported names of llm4em.go: top-level declarations and the entries
# of its type, const and var blocks.
nfacade=$(grep -cE $'^(func|type|const|var) [A-Z]|^\t[A-Z][A-Za-z0-9]* +=' llm4em.go || true)
# Field declarations of `type Options struct`; "A, B T" declares two.
noptions=$(awk '
  /^type Options struct \{/ { in_struct = 1; next }
  in_struct && /^\}/ { exit }
  in_struct && /^\t[A-Z]/ { n += 1 + gsub(/, [A-Z]/, "") }
  END { print n + 0 }
' internal/resolve/resolve.go)
echo "docs_check: emserve flags: $nflags (max $max_flags); resolve.Options fields: $noptions (max $max_options); facade names: $nfacade (max $max_facade)"
if [ "$noptions" -eq 0 ]; then
  echo "docs_check: could not parse resolve.Options out of internal/resolve/resolve.go" >&2
  fail=1
fi
if [ "$nfacade" -eq 0 ]; then
  echo "docs_check: could not parse the exported names out of llm4em.go" >&2
  fail=1
fi
if [ "$nfacade" -gt "$max_facade" ]; then
  echo "docs_check: llm4em.go exports $nfacade names, more than the $max_facade ceiling" >&2
  fail=1
fi
if [ "$nflags" -gt "$max_flags" ]; then
  echo "docs_check: emserve has $nflags flags, more than the $max_flags ceiling" >&2
  fail=1
fi
if [ "$noptions" -gt "$max_options" ]; then
  echo "docs_check: resolve.Options has $noptions fields, more than the $max_options ceiling" >&2
  fail=1
fi

# --- 6. cited tests exist --------------------------------------------
defined=$(git ls-files '*_test.go' | xargs grep -hoE '^func (Test|Benchmark|Fuzz)[A-Za-z0-9_]*' |
  sed 's/^func //' | sort -u)
if [ -z "$defined" ]; then
  echo "docs_check: could not parse any test functions out of the _test.go files" >&2
  exit 1
fi
while IFS= read -r md; do
  while IFS= read -r name; do
    [ -n "$name" ] || continue
    if ! grep -qxF -- "$name" <<<"$defined"; then
      echo "docs_check: $md cites $name, which no _test.go defines" >&2
      fail=1
    fi
  done < <(grep -oE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' "$md" | sort -u)
done < <(git ls-files '*.md' | grep -vxE '[^/]+\.md' ; echo README.md)

# --- 7. no bare emserve routes ---------------------------------------
bare='`((GET|POST) )?/(records|resolve|entities|stats|metrics|healthz|readyz)([^A-Za-z0-9_-]|$)'
for md in README.md docs/*.md; do
  while IFS= read -r hit; do
    echo "docs_check: $md names a bare emserve route (use /v1/…): $hit" >&2
    fail=1
  done < <(awk -v RS= '!/\*\*Upgrading:\*\*/' "$md" | grep -E -- "$bare" || true)
done

if [ "$fail" -ne 0 ]; then
  echo "docs_check: FAILED" >&2
  exit 1
fi
echo "docs_check: OK (links, emserve flag tables, /v1 routes, examples, knob ratchet, cited tests, no bare routes)"
