#!/usr/bin/env bash
# Docs lint: fail if the operator docs have drifted from the code.
# Checks (see scripts/docscheck for the implementation):
#   - every route registered in internal/service appears in docs/API.md
#   - every error-envelope code appears in docs/API.md
#   - every registered process has a row in the README process table
#   - every metric family /metrics exposes appears in docs/API.md, and
#     every cobrad_/graphstore_ name in docs/API.md or README.md is one
#   - no doc or Go file names a cmd/ directory or Markdown file that
#     does not exist
#
# Run from the repository root:
#
#   ./scripts/docs_check.sh
set -euo pipefail
cd "$(dirname "$0")/.."
exec go run ./scripts/docscheck .
