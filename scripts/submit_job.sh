#!/usr/bin/env bash
# Cluster deployment shape for the encode job (north rule: `ray job submit`
# on a fixed-size multi-node cluster). In this sandbox Ray is single-node
# local-only, so this script documents + smoke-runs the same entry point
# through `ray job submit` against the local cluster when available, and
# falls back to plain python.
#
#   ./scripts/submit_job.sh INPUT_DIR OUT_DIR
#
# On a real cluster: start the cluster (N or 4N nodes), set RAY_ADDRESS to
# the head node, and the same command distributes: the partition plan is
# metadata-only, each partition is encoded+committed independently
# (resume-safe), and the partition tasks all start together, each
# reserving an even share of the cluster's CPUs. Ray Jobs sets
# RAY_ADDRESS for the entrypoint, so the CLI attaches to the cluster
# instead of starting a local one.
set -euo pipefail
INPUT=${1:?input parquet dir}
OUT=${2:?output root}
if command -v ray >/dev/null && [ -n "${RAY_JOB_SUBMIT:-}" ]; then
  exec ray job submit --working-dir . -- python -m rayenc encode "$INPUT" "$OUT"
fi
exec python -m rayenc encode "$INPUT" "$OUT"
