#!/usr/bin/env sh
# Tier-1 verify, twice: once with the numpy column kernels and once
# with the stdlib fallback (REPRO_NO_NUMPY=1).
#
# The kernel layer in src/repro/colkernels.py is a cache over
# authoritative list-and-dict state, never an authority itself, so no
# answer may depend on which mode is active.  Both runs must be green.
#
# Usage: scripts/tier1_both_modes.sh [extra pytest args...]
#   e.g. scripts/tier1_both_modes.sh -m columnar

set -eu
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== tier-1 (numpy kernels) =="
python -m pytest -x -q "$@"

echo "== tier-1 (stdlib kernels: REPRO_NO_NUMPY=1) =="
REPRO_NO_NUMPY=1 python -m pytest -x -q "$@"

echo "== tier-1 green in both kernel modes =="
