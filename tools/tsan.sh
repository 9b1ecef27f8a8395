#!/usr/bin/env bash
# tools/tsan.sh — ThreadSanitizer build + steal-path stress run.
#
# Builds the tree with -fsanitize=thread and runs the test suites that
# exercise OS-thread concurrency without user-level context switches
# (TSan cannot follow the kernel's fcontext/ucontext stack switches, so
# ULT suites are out of scope here — the steal/park/trace/queue paths are
# exactly the code this PR's overhaul touches and are tasklet-only).
#
# Usage: tools/tsan.sh [ctest-regex]
#   default regex:
#   'test_steal|test_trace|test_metrics|test_topology|test_alloc|test_join|test_sync_ult|test_io|test_introspect'
#   (test_join and test_sync_ult self-gate their ULT-switching cases behind
#   LWT_TSAN, leaving the parker/wait-table/channel-rendezvous/reactor
#   timer-claim races for TSan to chew on — including the ThreadParker
#   teardown race, JoinCore.ThreadParkerFreedTheInstantItIsNotified, and
#   the tasklet-only attached-thread waits, AttachedWait.*.)
set -euo pipefail

cd "$(dirname "$0")/.."
REGEX="${1:-test_steal|test_trace|test_metrics|test_topology|test_alloc|test_join|test_sync_ult|test_io|test_introspect}"
BUILD=build-tsan

cmake -B "$BUILD" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-omit-frame-pointer -O1 -g" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=thread" \
  -DLWT_BUILD_BENCH=OFF \
  -DLWT_BUILD_EXAMPLES=OFF

# Build only the targets the regex selects (plus their libs).
cmake --build "$BUILD" -j"$(nproc)" --target \
  $(echo "$REGEX" | tr '|' ' ')

cd "$BUILD"
TSAN_OPTIONS="halt_on_error=1 second_deadlock_stack=1" \
  ctest --output-on-failure -R "$REGEX"
echo "TSan run clean for: $REGEX"
