#!/usr/bin/env bash
# The installed `fogplan` entry point end to end: a small scenario file runs
# and prints its CSV path; an unknown key, at the top or nested in a section,
# and a non-integer count given to --param each exit 2.
set -euo pipefail
tmp="${RUNNER_TEMP:-$(mktemp -d)}"
spec="$tmp/spec.yaml"
nested="$tmp/nested.yaml"
python -c 'import sys, yaml; from fogplan.scenario import ScenarioSpec, save
save(ScenarioSpec(colonies=1, cells_per_colony=2, apps=2, services_per_app=3), sys.argv[1])
doc = yaml.safe_load(open(sys.argv[1]))
doc["resources"]["fc"]["gpu"] = 1
yaml.safe_dump(doc, open(sys.argv[2], "w"), sort_keys=False)' "$spec" "$nested"
csv=$(fogplan --scenario "$spec" --algo nsga2 --evals 40 --out "$tmp/out")
echo "$csv"
test -f "$csv"
[[ "$csv" == *.csv ]]

exits_2() {
  local status=0
  fogplan "$@" --algo nsga2 --evals 40 --out "$tmp/out" || status=$?
  test "$status" -eq 2
}
exits_2 --scenario "$nested"
exits_2 --scenario "$spec" --param grid_divisions=7.5
echo 'colonnies: 7' >> "$spec"
exits_2 --scenario "$spec"
