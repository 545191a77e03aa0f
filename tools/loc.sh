#!/usr/bin/env bash
# Print the C++ source size of a checkout: the *.cpp/*.hpp line count of
# src/, tools/, bench/ and tests/, then the src/ + tools/ total that
# ROADMAP.md tracks. Also breaks src/ down per module.
#
# Usage: tools/loc.sh [root]    (root defaults to this script's checkout)
set -euo pipefail
root=${1:-"$(dirname "$0")/.."}
cd "$root"

# Lines of every *.cpp/*.hpp under the given directories (0 if none).
lines() {
  find "$@" -type f \( -name '*.cpp' -o -name '*.hpp' \) -print0 2>/dev/null |
    xargs -0 -r cat | wc -l
}

for dir in src tools bench tests; do
  printf '%-16s %6d\n' "$dir/" "$(lines "$dir")"
done
for dir in src/*/; do
  printf '  %-14s %6d\n' "$dir" "$(lines "$dir")"
done
printf '%-16s %6d\n' "src/+tools/" "$(lines src tools)"
