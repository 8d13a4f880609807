#!/usr/bin/env bash
# The determinism gate of one binary (ctest gate.<binary>; DESIGN.md §17).
#
# Runs the binary once per variant (MCS_THREADS x repeat, or --jobs for
# the linter), keeps every variant's stdout, stderr, exit status and
# output files in the current directory (ctest runs it in
# build/gates/<binary>/), byte-compares them, pins the goldens of
# tests/goldens/scalar_digests.txt, and checks that hostile inputs exit 2
# with a message. A failure names the binary, the comparison and the two
# variants that differ; every comparison runs even after one fails.
#
# Usage:
#   gate.sh sweep  EXE MCS_REPORT [GOLDENS]  exp_scheduling/failures/autoscalers
#   gate.sh repeat EXE                       exp_graphalytics
#   gate.sh check  EXE MCS_REPORT GOLDENS    mcs_check
#   gate.sh lint   EXE                       mcs_lint over src bench tests tools
set -uo pipefail

kind="${1:-}"
exe="${2:-}"
if [[ ! -x "${exe}" ]]; then
  echo "usage: $0 sweep|repeat|check|lint EXE [MCS_REPORT] [GOLDENS]" >&2
  exit 2
fi
name="$(basename "${exe}")"
out="$(pwd)"
repo="$(cd "$(dirname "$0")/.." && pwd)"
fail=0

failed() {
  echo "FAIL: ${name}: $*" >&2
  fail=1
}

# run TAG THREADS ARGS...: one variant of EXE; TAG.out, TAG.err, TAG.rc.
# The variant's files from an earlier run are removed first, so a run that
# writes nothing cannot pass on stale bytes.
run() {
  local tag="$1" threads="$2"
  shift 2
  rm -f "${out}/${tag}".*
  MCS_THREADS="${threads}" "${exe}" "$@" > "${out}/${tag}.out" \
      2> "${out}/${tag}.err"
  echo "$?" > "${out}/${tag}.rc"
  echo "${name} ${tag}: exit $(< "${out}/${tag}.rc")"
}

# pick SUFFIX SED TAG...: TAG.SUFFIX = the lines of TAG.out that SED prints.
pick() {
  local suffix="$1" script="$2" tag
  shift 2
  for tag in "$@"; do
    sed -n "${script}" "${out}/${tag}.out" > "${out}/${tag}.${suffix}"
  done
}

# same WHAT SUFFIX TAG...: every TAG.SUFFIX is non-empty and byte-identical.
same() {
  local what="$1" suffix="$2" tag
  shift 2
  for tag in "$@"; do
    if [[ ! -s "${out}/${tag}.${suffix}" ]]; then
      failed "${what}: ${tag} wrote none"
      return
    fi
  done
  for tag in "${@:2}"; do
    if ! cmp -s "${out}/$1.${suffix}" "${out}/${tag}.${suffix}"; then
      failed "${what} differs between $1 and ${tag}"
      diff "${out}/$1.${suffix}" "${out}/${tag}.${suffix}" | head -10 | cut -c1-200 >&2
    fi
  done
}

# exited0 TAG...: every variant exited 0.
exited0() {
  local tag
  for tag in "$@"; do
    if [[ "$(< "${out}/${tag}.rc")" != 0 ]]; then
      failed "${tag} exited $(< "${out}/${tag}.rc"): $(head -3 "${out}/${tag}.err")"
    fi
  done
}

# golden KEY FILE: FILE holds exactly KEY's value in GOLDENS.
golden() {
  local want
  want="$(sed -n "s/^$1=//p" "${goldens}")"
  if [[ -z "${want}" ]]; then
    failed "golden $1 missing from ${goldens}"
  elif [[ "$(< "$2")" != "${want}" ]]; then
    failed "golden $1: $(basename "$2") holds '$(< "$2")', want ${want}"
  else
    echo "golden $1 = ${want}"
  fi
}

# hostile CMD...: CMD must exit 2 with a message on stderr.
hostile() {
  local err status
  err="$("$@" 2>&1 > /dev/null)"
  status=$?
  if [[ ${status} -ne 2 || -z "${err}" ]]; then
    failed "hostile input '$(basename "$1") ${*:2}': exit ${status}, stderr '${err}'"
  else
    echo "ok: hostile $(basename "$1") ${*:2}: ${err}"
  fi
}

# renders REPORT PATTERN: mcs_report renders REPORT (with a line matching
# PATTERN) and judges it identical to itself.
renders() {
  if ! "${mcs_report}" "$1" > "$1.txt" 2>&1 || ! grep -q "$2" "$1.txt"; then
    failed "mcs_report does not render $(basename "$1") with '$2'"
  fi
  if ! "${mcs_report}" --diff "$1" "$1" > "$1.diff" 2>&1; then
    failed "mcs_report --diff $(basename "$1") against itself: $(head -3 "$1.diff")"
  fi
}

# Variant tags name their MCS_THREADS value: t1a runs at 1, t8b at 8.
variants=(t1a t1b t8a t8b)

case "${kind}" in
  sweep)
    mcs_report="${3:-}"
    goldens="${4:-}"
    for tag in "${variants[@]}"; do
      run "${tag}" "${tag:1:1}" --reps 8 --digest \
          --trace "${out}/${tag}.trace.json" \
          --slo 'bot:120:0.9;workflow:900:0.9' \
          --report "${out}/${tag}.report.json"
    done
    exited0 "${variants[@]}"
    pick digest '/^[0-9a-f]\{16\}$/p' "${variants[@]}"
    pick tdigest 's/^trace digest //p' "${variants[@]}"
    same "sweep digest" digest "${variants[@]}"
    [[ -n "${goldens}" ]] && golden "${name}_reps8" "${out}/t1a.digest"
    same "trace digest" tdigest "${variants[@]}"
    same "exemplar trace" trace.json "${variants[@]}"
    same "report" report.json "${variants[@]}"
    renders "${out}/t1a.report.json" 'mcs-report-v1'
    for args in "--reps -3" "--reps=-3" "--threads -1" \
        "--reps 99999999999999999999999" "--slo bot:abc:2" "--rep 3 --digest"; do
      # shellcheck disable=SC2086  # word-split the case into argv on purpose
      hostile "${exe}" ${args}
    done
    ;;
  repeat)
    for tag in "${variants[@]}"; do
      run "${tag}" "${tag:1:1}" --digest
    done
    exited0 "${variants[@]}"
    same "digest" out "${variants[@]}"
    ;;
  check)
    mcs_report="${3:-}"
    goldens="${4:-}"
    for tag in t1 t8; do
      run "${tag}" "${tag:1}" --seeds 100 --digest
    done
    exited0 t1 t8
    pick digest 's/^summary //p' t1 t8
    same "summary digest" digest t1 t8
    golden mcs_check_seeds100 "${out}/t1.digest"
    run slo 8 --seeds 40 --slo 'all:300:0.9' --report "${out}/slo.report.json"
    exited0 slo
    renders "${out}/slo.report.json" 'slo attainment'
    : > "${out}/empty.repro"
    echo 'jobs=banana' > "${out}/unknown_key.repro"
    echo 'racks=3x' > "${out}/trailing_text.repro"
    echo 'trace.arrivals=7' > "${out}/bad_enum.repro"
    for repro in empty unknown_key trailing_text bad_enum; do
      hostile "${exe}" --replay "${out}/${repro}.repro"
    done
    head -c 200000 /dev/zero | tr '\0' '[' > "${out}/deep.json"
    hostile "${mcs_report}" "${out}/deep.json"
    ;;
  lint)
    cd "${repo}" || exit 2
    for jobs in 1 8; do
      run "j${jobs}" 1 --jobs "${jobs}" --sarif "${out}/j${jobs}.sarif" \
          src bench tests tools
    done
    same "exit status" rc j1 j8
    same "report text" out j1 j8
    same "SARIF" sarif j1 j8
    ;;
  *)
    echo "usage: $0 sweep|repeat|check|lint EXE [MCS_REPORT] [GOLDENS]" >&2
    exit 2
    ;;
esac

if [[ ${fail} -ne 0 ]]; then
  echo "FAIL: ${name} gate (outputs kept in ${out})" >&2
  exit 1
fi
echo "OK: ${name} gate"
