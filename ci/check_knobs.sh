#!/usr/bin/env bash
# Knob census: every GENEALOG_* environment variable the engine reads must be
# documented in README's knob table, and every documented one must exist.
#
# Usage: ci/check_knobs.sh
#
# The engine's set is every "GENEALOG_*" string literal that src/ passes as
# the first argument of std::getenv, EnvBoolKnob, EnvCountKnob or a
# Parse*Knob call (calls may span lines). The documented set is the
# GENEALOG_* names opening a row of README's knob table. GENEALOG_BENCH_*
# variables are read by the benches, not the engine, and are left out of
# both. Exits 1 and prints the difference when the sets disagree.
#
# It also guards the one home of every setting: outside
# src/common/engine_options.h and src/common/env_knob.h, no src/ code may
# call engine_defaults:: or an environment reader (std::getenv, EnvBoolKnob,
# EnvCountKnob). Everything else takes its settings from an EngineOptions.
# Exits 1 and lists the offending lines otherwise.
set -euo pipefail

cd "$(git rev-parse --show-toplevel)"

read_by_src() {
  grep -rhPzo --include='*.h' --include='*.cc' \
    '(?:getenv|EnvBoolKnob|EnvCountKnob|Parse\w*Knob)\(\s*"\KGENEALOG_[A-Z0-9_]+' \
    src | tr '\0' '\n' | grep -v '^GENEALOG_BENCH_' | sort -u
}

documented() {
  grep -oE '^\| `GENEALOG_[A-Z0-9_]+`' README.md | sed -E 's/^\| `//; s/`$//' |
    grep -v '^GENEALOG_BENCH_' | sort -u
}

# Code lines (comments skipped) outside the two home files that read a
# setting from the environment themselves.
stray_readers() {
  grep -rnE --include='*.h' --include='*.cc' \
    '\bengine_defaults::|\bgetenv[[:space:]]*\(|\bEnv(Bool|Count)Knob[[:space:]]*\(' \
    src |
    grep -vE '^src/common/(engine_options|env_knob)\.h:' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true
}

stray="$(stray_readers)"
if [[ -n "$stray" ]]; then
  echo "check_knobs: src/ reads settings outside common/engine_options.h" \
    "and common/env_knob.h (take them from an EngineOptions instead):" >&2
  sed 's/^/  /' <<< "$stray" >&2
  exit 1
fi

src_knobs="$(read_by_src)"
doc_knobs="$(documented)"
src_count="$(grep -c . <<< "$src_knobs" || true)"
doc_count="$(grep -c . <<< "$doc_knobs" || true)"

if [[ "$src_knobs" == "$doc_knobs" ]]; then
  echo "check_knobs: OK (${src_count} read by src/ = ${doc_count} in README)"
  exit 0
fi

echo "check_knobs: src/ reads ${src_count} GENEALOG_* variables," \
  "README's knob table lists ${doc_count}" >&2
undocumented="$(comm -23 <(echo "$src_knobs") <(echo "$doc_knobs"))"
stale="$(comm -13 <(echo "$src_knobs") <(echo "$doc_knobs"))"
if [[ -n "$undocumented" ]]; then
  echo "read by src/ but missing from README:" >&2
  sed 's/^/  /' <<< "$undocumented" >&2
fi
if [[ -n "$stale" ]]; then
  echo "listed in README but not read by src/:" >&2
  sed 's/^/  /' <<< "$stale" >&2
fi
exit 1
