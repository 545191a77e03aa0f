#!/usr/bin/env bash
# Configure and build every configure preset in CMakePresets.json, in the
# order listed, each into its own binaryDir (build, build-release, ...),
# and run the tsan preset's tests (`ctest --preset tsan`: the threaded
# executor, equivalence, deadlock, watchdog, recovery and registry suites
# under ThreadSanitizer) right after that preset builds. Stops with a
# non-zero exit at the first preset that fails to configure or build, or
# at a failing tsan test. Deliberately not a ctest: four full builds take
# far longer than the tier-1 suite.
#
# Usage: tools/check_presets.sh
# Parallelism follows CMake's own CMAKE_BUILD_PARALLEL_LEVEL and
# CTEST_PARALLEL_LEVEL, e.g.
#   CMAKE_BUILD_PARALLEL_LEVEL=4 CTEST_PARALLEL_LEVEL=4 tools/check_presets.sh
set -euo pipefail
cd "$(dirname "$0")/.."

presets=$(cmake --list-presets=configure | sed -n 's/^ *"\([^"]*\)".*/\1/p')
if [ -z "$presets" ]; then
  echo "check_presets: no configure presets found" >&2
  exit 1
fi
for preset in $presets; do
  echo "== preset $preset: configure"
  cmake --preset "$preset"
  echo "== preset $preset: build"
  cmake --build --preset "$preset"
  if [ "$preset" = tsan ]; then
    echo "== preset tsan: test"
    ctest --preset tsan
  fi
done
echo "check_presets: every preset built, tsan tests passed:" $presets
