"""Write perfbench/refs/<workload>.json from one run at the default seed.

    python3 perfbench/make_refs.py [WORKLOAD ...]

The references pin the artifacts the benchmark accepts; regenerate them
only in a change that means to alter those artifacts, and say so there.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(names) -> int:
    spec = run.load_spec()
    os.environ.update(run.THREAD_ENV)
    sys.path.insert(0, str(run.SRC))
    from henonlab.cli import main as cli_main

    from checker import make_reference
    seed = spec["default_seed"]
    for name in names or sorted(spec["workloads"]):
        out = run.WORK / "refs" / name
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        jobs = {}
        for js in spec["workloads"][name]["jobs"]:
            job = run.Job(js, seed, None, out / f"{js['name']}.json")
            rc = cli_main(job.argv(out))
            if rc != js["exit"]:
                print(f"{name}/{job.name}: exit {rc}, expected "
                      f"{js['exit']}", file=sys.stderr)
                return 1
            jobs[job.name] = make_reference(js, out / job.name)
        doc = {"seed": seed, "jobs": jobs}
        (run.HERE / "refs" / f"{name}.json").write_text(
            json.dumps(doc, indent=1, sort_keys=True) + "\n")
        shutil.rmtree(out)
        print(f"wrote refs/{name}.json")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
