#!/usr/bin/env bash
# What production runs: a line-coverage census of src/.
#
# Builds the root project (examples and sl_lint; no tests, no
# benchmarks) and the wall-clock benchmark (perfbench/) with
# `-O0 --coverage` into build-census/, configured from here so that no
# file under perfbench/ changes. Then runs the production drivers:
#   - the four example programs;
#   - dsn_runner on every examples/dsn/*.dsn;
#   - sl_lint --analyze on the examples and the lint corpus;
#   - slbench --selftest and the three perfbench workloads (3 s, traced).
# It prints how many of src/'s executable lines those drivers executed,
# as the union of gcov's JSON line counts over both builds, and writes
# the functions that no driver ran to artifacts/CENSUS_unrun.txt.
#
# Usage: scripts/census.sh [jobs]

set -euo pipefail

jobs="${1:-$(nproc)}"
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${root}/build-census"
artifacts="${root}/artifacts"
mkdir -p "${artifacts}" "${out}/run"

coverage=(-DCMAKE_BUILD_TYPE=Debug "-DCMAKE_CXX_FLAGS=-O0 --coverage"
          "-DCMAKE_EXE_LINKER_FLAGS=--coverage")

echo "==> census: building ${out}/root and ${out}/perfbench (-O0 --coverage)"
cmake -S "${root}" -B "${out}/root" "${coverage[@]}" \
  -DSL_BUILD_TESTS=OFF -DSL_BUILD_BENCHMARKS=OFF >/dev/null
cmake --build "${out}/root" -j "${jobs}" >/dev/null
cmake -S "${root}/perfbench" -B "${out}/perfbench" "${coverage[@]}" >/dev/null
cmake --build "${out}/perfbench" --target slbench -j "${jobs}" >/dev/null

# Counts from an earlier census must not leak into this one.
find "${out}" -name '*.gcda' -delete

echo "==> census: running the production drivers"
examples="${out}/root/examples"
sl_lint="${out}/root/tools/sl_lint"
slbench="${out}/perfbench/slbench"
registry="${root}/examples/dsn/sensors.reg"
(
  # Drivers that write files write them here.
  cd "${out}/run"
  for example in quickstart osaka_scenario plug_and_play design_session; do
    "${examples}/${example}" >/dev/null
  done
  for dsn in "${root}"/examples/dsn/*.dsn; do
    "${examples}/dsn_runner" "${dsn}" >/dev/null
  done
  # Corpus programs exist to fail the lint, so only a crash stops here.
  for dsn in "${root}"/examples/dsn/*.dsn "${root}"/tests/lint_corpus/*.dsn; do
    "${sl_lint}" --registry="${registry}" --analyze "${dsn}" >/dev/null || true
  done
  "${slbench}" --selftest >/dev/null
  for workload in sim_osaka live_chain live_windows; do
    "${slbench}" --workload "${workload}" --seed 1 --seconds 3 --trace 1 \
      >/dev/null
  done
)

echo "==> census: reading gcov counts"
python3 - "${root}" "${out}" "${artifacts}/CENSUS_unrun.txt" <<'EOF'
import json, os, subprocess, sys

root, out, unrun_path = sys.argv[1:4]
src = os.path.join(root, "src") + os.sep
executable, executed = set(), set()
functions = {}  # (file, start line, name) -> executions over both builds
for build in ("root", "perfbench"):
    for dirpath, _, names in os.walk(os.path.join(out, build)):
        for name in names:
            if not name.endswith(".gcda"):
                continue
            report = subprocess.run(
                ["gcov", "-j", "-t", "-o", dirpath, os.path.join(dirpath, name)],
                capture_output=True, text=True, check=True, cwd=dirpath)
            for line in report.stdout.splitlines():
                if not line.startswith("{"):
                    continue
                for f in json.loads(line)["files"]:
                    path = os.path.realpath(os.path.join(dirpath, f["file"]))
                    if not path.startswith(src):
                        continue
                    rel = os.path.relpath(path, root)
                    for l in f["lines"]:
                        executable.add((rel, l["line_number"]))
                        if l["count"] > 0:
                            executed.add((rel, l["line_number"]))
                    for fn in f["functions"]:
                        key = (rel, fn["start_line"], fn["demangled_name"])
                        functions[key] = (functions.get(key, 0) +
                                          fn["execution_count"])
total, ran = len(executable), len(executed)
print("==> census: src/ executable lines run by production drivers: "
      f"{ran} of {total} ({100.0 * ran / max(total, 1):.1f} %), "
      f"{total - ran} unrun")
unrun = sorted(k for k, n in functions.items() if n == 0)
with open(unrun_path, "w") as listing:
    for rel, line, name in unrun:
        listing.write(f"{rel}:{line} {name}\n")
print(f"==> census: {len(unrun)} of {len(functions)} src/ functions never "
      f"ran (listed in {os.path.relpath(unrun_path, root)})")
EOF
