#!/usr/bin/env bash
# Documentation link-and-reference checker.
#
# Scans every tracked markdown file for
#   1. inline markdown links [text](target) — the target file must exist
#      (relative to the doc, or to the repo root as a fallback); anchors
#      and external URLs are skipped;
#   2. textual file references like docs/PROTOCOLS.md, DESIGN.md,
#      src/ns/name_service.*, tests/test_failover.cpp, scripts/foo.sh —
#      the named path must exist (a trailing .* matches any extension);
#   3. module-relative source references like obs/tracer.hpp or
#      ns/name_service.* — a word that starts with a src/ module directory
#      and ends in an extension (or .*) must name a file under src/;
#      extensionless ones (ns/probe) are units, not paths, and are skipped;
#   4. the trace-event taxonomy — every EventKind enumerator in
#      src/obs/tracer.hpp except the kKindCount sentinel must appear, in
#      backticks, in docs/OBSERVABILITY.md.
#
# Exits non-zero listing every dangling reference. Wired into
# scripts/run_sanitizers.sh so the doc tree is checked on every
# sanitizer run; cheap enough to run by hand any time:
#
#   scripts/check_docs.sh
set -uo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

# Markdown files: tracked ones if git is available, else a find. Files
# that intentionally reference past or external states are skipped:
# CHANGES.md and ISSUE.md describe history/plans (including files that no
# longer exist), SNIPPETS.md/PAPERS.md quote other repositories, and
# .claude/ is tooling config.
skip_doc() {
  case "$1" in
    CHANGES.md|ISSUE.md|SNIPPETS.md|PAPER.md|PAPERS.md|.claude/*) return 0 ;;
  esac
  return 1
}

if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  mapfile -t all_docs < <(git ls-files -c -o --exclude-standard '*.md')
else
  mapfile -t all_docs < <(find . -name '*.md' -not -path './build*' | sed 's|^\./||')
fi
docs=()
for d in "${all_docs[@]}"; do
  skip_doc "$d" || docs+=("$d")
done

failures=0

# src/ module directories, as the alternation of rule 3's pattern.
modules="$(cd src && ls -d */ | tr -d / | paste -sd'|')"

fail() {
  echo "dangling: $1 -> $2" >&2
  failures=$((failures + 1))
}

# Does a referenced path exist? Accepts globs (src/ns/name_service.*,
# bench/*) and extensionless module references (src/fs/snapshot → any
# snapshot.* file).
exists() {
  local ref="$1"
  [[ -e "$ref" ]] && return 0
  if [[ "$ref" == *'*'* ]]; then
    compgen -G "$ref" >/dev/null && return 0
  fi
  compgen -G "${ref}.*" >/dev/null && return 0
  return 1
}

for doc in "${docs[@]}"; do
  dir="$(dirname "$doc")"

  # 1. Inline markdown links: [text](target). One link per line is enough
  #    for this tree; anchors (#...) and URLs (scheme://...) are skipped.
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      \#*|*://*|mailto:*) continue ;;
    esac
    target="${target%%#*}"             # strip fragment
    if ! { exists "$dir/$target" || exists "$target"; }; then
      fail "$doc" "($target)"
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$doc" 2>/dev/null \
             | sed 's/^\[[^]]*\](\([^)]*\))$/\1/')

  # 2. Textual path references. Conservative pattern: a word that starts
  #    with a known top-level directory or is a top-level *.md name.
  while IFS= read -r ref; do
    [[ -z "$ref" ]] && continue
    ref="${ref%%#*}"
    if ! { exists "$ref" || exists "$dir/$ref"; }; then
      fail "$doc" "$ref"
    fi
  done < <(grep -oP '(?<![A-Za-z0-9_./-])(docs|src|tests|bench|examples|scripts)/[A-Za-z0-9_./*-]+|(?<![A-Za-z0-9_./-])[A-Z][A-Z0-9_]*\.md\b' "$doc" 2>/dev/null \
             | sed 's/[.,;:)]*$//' | sort -u)

  # 3. Module-relative source references, resolved against src/.
  while IFS= read -r ref; do
    [[ -z "$ref" ]] && continue
    exists "src/$ref" || fail "$doc" "$ref"
  done < <(grep -oP "(?<![A-Za-z0-9_./-])($modules)/[A-Za-z0-9_./*-]+" "$doc" 2>/dev/null \
             | sed 's/[.,;:)]*$//' | grep -E '\.([A-Za-z0-9]+|\*)$' | sort -u)
done

# 4. Every trace event kind is documented.
mapfile -t kinds < <(sed -n '/^enum class EventKind/,/^};/p' src/obs/tracer.hpp \
                       | grep -oP '^\s*\Kk[A-Za-z0-9]+(?=\s*(=[^,]*)?,?\s*(//.*)?$)' \
                       | grep -vx kKindCount)
if [[ "${#kinds[@]}" -eq 0 ]]; then
  fail src/obs/tracer.hpp "no EventKind enumerators found"
fi
for kind in "${kinds[@]}"; do
  grep -qF "\`$kind\`" docs/OBSERVABILITY.md ||
    fail docs/OBSERVABILITY.md "EventKind::$kind undocumented"
done

if [[ "$failures" -gt 0 ]]; then
  echo "check_docs: $failures dangling reference(s)" >&2
  exit 1
fi
echo "check_docs: OK (${#docs[@]} markdown files, no dangling references," \
     "${#kinds[@]} event kinds documented)"
