#!/usr/bin/env bash
# Hostile-input battery for the sweep binaries: each malformed command line
# must be rejected with a message on stderr and exit status 2 — never an
# abort (134), a segfault, or a silent run with defaults.
#
# Usage: scripts/check_hostile_inputs.sh /path/to/exp_scheduling \
#            [/path/to/exp_failures ...]
set -uo pipefail

if [[ $# -eq 0 ]]; then
  echo "usage: $0 /path/to/exp_binary..." >&2
  exit 2
fi

cases=(
  "--reps -3"
  "--reps=-3"
  "--threads -1"
  "--reps 99999999999999999999999"
  "--slo bot:abc:2"
)

fail=0
for exe in "$@"; do
  if [[ ! -x "${exe}" ]]; then
    echo "FAIL: ${exe} is not executable" >&2
    exit 2
  fi
  for args in "${cases[@]}"; do
    # shellcheck disable=SC2086  # word-split the case into argv on purpose
    err="$("${exe}" ${args} 2>&1 >/dev/null)"
    status=$?
    if [[ ${status} -ne 2 || -z "${err}" ]]; then
      echo "FAIL: $(basename "${exe}") ${args}: exit ${status}, stderr '${err}'" >&2
      fail=1
    else
      echo "ok:   $(basename "${exe}") ${args}: ${err}"
    fi
  done
done
exit "${fail}"
