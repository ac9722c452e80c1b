#!/usr/bin/env bash
# The installed `fogplan` entry point end to end: a small scenario file runs
# each experiment (evolution with all three algorithms over two generations,
# deadline, scaling with all three at factors 1 and 2, which share each
# factor's greedy anchors) and prints its CSV path; an unknown
# key, at the top or nested in a section, a negative link latency, a
# non-integer count given to --param, an odd population above 2**53 (which
# a float would round to an even one) and a scaling factor of 10**9 each
# exit 2, the last four with a message that names the fault.
set -euo pipefail
tmp="${RUNNER_TEMP:-$(mktemp -d)}"
spec="$tmp/spec.yaml"
nested="$tmp/nested.yaml"
latency="$tmp/latency.yaml"
python -c 'import sys, yaml; from fogplan.scenario import ScenarioSpec, save
save(ScenarioSpec(colonies=1, cells_per_colony=2, apps=2, services_per_app=3), sys.argv[1])
doc = yaml.safe_load(open(sys.argv[1]))
doc["resources"]["fc"]["gpu"] = 1
yaml.safe_dump(doc, open(sys.argv[2], "w"), sort_keys=False)
del doc["resources"]["fc"]["gpu"]
doc["latencies"]["fcm_fcm_ms"] = -1
yaml.safe_dump(doc, open(sys.argv[3], "w"), sort_keys=False)' "$spec" "$nested" "$latency"
prints_csv() {
  local csv
  csv=$(fogplan --scenario "$spec" --out "$tmp/out" "$@")
  echo "$csv"
  test -f "$csv"
  [[ "$csv" == *.csv ]]
}
# 80 evaluations: a second generation, where MOEA/D replaces and MOPSO moves
prints_csv --algo all --evals 80
grep -q "^moead," "$tmp/out/evolution.csv"
grep -q "^mopso," "$tmp/out/evolution.csv"
prints_csv --algo nsga2 --evals 40 --experiment deadline
prints_csv --algo all --evals 40 --experiment scaling --factors 1,2
test "$(grep -c . "$tmp/out/scaling.csv")" -eq 7

exits_2() {
  local status=0
  fogplan "$@" --algo nsga2 --evals 40 --out "$tmp/out" 2> "$tmp/err" || status=$?
  cat "$tmp/err"
  test "$status" -eq 2
}
exits_2 --scenario "$nested"
exits_2 --scenario "$latency"
grep -q "latencies: fcm_fcm_ms" "$tmp/err"
exits_2 --scenario "$spec" --param grid_divisions=7.5
grep -q "integer" "$tmp/err"
exits_2 --scenario "$spec" --param population_size=9007199254740993
grep -q "even" "$tmp/err"
exits_2 --scenario "$spec" --experiment scaling --factors 1000000000
grep -q -- "--factors 1000000000" "$tmp/err"
echo 'colonnies: 7' >> "$spec"
exits_2 --scenario "$spec"
