#!/usr/bin/env bash
#===- scripts/check_configs.sh - Build and test every configuration -------===#
#
# Configures, builds and tests each build configuration the repository
# advertises, in order, each in its own build directory under the
# repository root:
#
#   release  build-release  Release (-O3), -Werror         full ctest
#   tsan     build-tsan     EEL_SANITIZE=thread            ctest -L 'par|serve|obs|ir'
#   san      build-san      EEL_SANITIZE=address,undefined ctest -L 'fuzz|obs|serve|par'
#
# Every configuration builds with -Wall -Wextra -Werror, and the ASan run
# keeps LeakSanitizer on. Builds and tests use one job per core. The script
# stops at the first step that fails and prints that step's output.
#
# Usage: scripts/check_configs.sh
#===------------------------------------------------------------------------===#

set -uo pipefail

REPO_ROOT="$(cd "$(dirname "$0")/.." && pwd)"
LOG="$(mktemp)"
trap 'rm -f "$LOG"' EXIT

# run_step LABEL COMMAND...: runs COMMAND with its output in $LOG; on
# failure prints the output and exits.
run_step() {
  local Label="$1"
  shift
  echo "== $Label"
  if ! "$@" >"$LOG" 2>&1; then
    echo "FAILED: $Label" >&2
    cat "$LOG" >&2
    exit 1
  fi
}

# check NAME DIR LABELS CMAKE_ARG...: configure, build and test one
# configuration; an empty LABELS runs the full suite.
check() {
  local Name="$1" Dir="$REPO_ROOT/$2" Labels="$3"
  shift 3
  run_step "$Name: configure" cmake -S "$REPO_ROOT" -B "$Dir" "$@"
  run_step "$Name: build" cmake --build "$Dir" -j "$(nproc)"
  local Ctest=(ctest --test-dir "$Dir" -j "$(nproc)" --output-on-failure)
  if [ -n "$Labels" ]; then
    Ctest+=(-L "$Labels")
  fi
  run_step "$Name: ${Ctest[*]}" "${Ctest[@]}"
  grep -E "tests passed|tests failed" "$LOG"
}

check release build-release "" -DCMAKE_BUILD_TYPE=Release \
  -DCMAKE_CXX_FLAGS= -DEEL_SANITIZE=
check tsan build-tsan 'par|serve|obs|ir' -DCMAKE_CXX_FLAGS= \
  -DEEL_SANITIZE=thread
check san build-san 'fuzz|obs|serve|par' -DCMAKE_CXX_FLAGS= \
  -DEEL_SANITIZE=address,undefined
echo "all three configurations passed"
