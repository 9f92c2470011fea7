"""Work the benchmark runs in a fresh interpreter.

    python3 bench_child.py setup LIB SCENARIO...
        Import attbench from LIB, then load and validate each scenario
        file; print the seconds this took.

    python3 bench_child.py digest LIB SCENARIO MODE CSV
        Run one scenario on the user path, write its CSV and print
        {"backend": ..., "sha256": ...} as JSON. The benchmark runs this
        with ATTBENCH_PURE_PYTHON=1 for the backend parity check.
"""

import json
import sys
import time

# only the standard library before the timer starts: numpy, scipy and yaml
# are part of what attbench's import costs
from bench_build import import_attbench


def main(argv):
    what, lib = argv[0], argv[1]
    t0 = time.perf_counter()
    mods = import_attbench(lib)
    scenario, runner = mods["scenario"], mods["runner"]
    if what == "setup":
        for path in argv[2:]:
            scenario.resolve_scenario(path)
        print(repr(time.perf_counter() - t0))
        return 0
    if what == "digest":
        from bench_gate import sha256_file

        path, mode, csv_path = argv[2:5]
        result = runner.run_scenario(scenario.resolve_scenario(path), mode=mode)
        runner.write_csv(result, csv_path)
        print(json.dumps({"backend": mods["core"].BACKEND, "sha256": sha256_file(csv_path)}))
        return 0
    raise SystemExit("unknown task %r" % what)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
