"""Run every corpus job in a fresh interpreter and print what differs from
the committed table.

    python tests/parity.py

Each job of `corpus.JOBS` runs as ``python -m henonlab`` against this
tree's ``src/``, with the inherited hash seed, in its own temporary
directory, and its exit code, stderr lines and output digests are
compared with `tests/corpus.json` (the table `tests/test_corpus.py`
checks in-process).  One line is printed per output path whose digest
differs or that only one side has (a directory counts as a path), per
differing exit code and per stderr line that only one side has.  The last line counts the jobs that
differ; the exit status is 1 if any did, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

import corpus

HERE = Path(__file__).resolve().parent.parent


def run(work: Path, job: corpus.Job) -> dict:
    """The table entry of `job` run in a fresh interpreter under `work`."""
    job_dir = work / job.name.replace("/", "-")
    job_dir.mkdir(parents=True)
    out = job_dir / "out"
    argv = [sys.executable, "-m", "henonlab", job.command, "--config",
            str(corpus.config_file(job, job_dir)), "--out", str(out)]
    if job.seed is not None:
        argv += ["--seed", str(job.seed)]
    env = dict(os.environ, PYTHONPATH=str(HERE / "src"),
               PYTHONDONTWRITEBYTECODE="1", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(argv, env=env, cwd=job_dir, capture_output=True,
                          text=True, timeout=600)
    return corpus.outputs(proc.returncode, proc.stderr, out)


def main(argv=None) -> int:
    if sys.argv[1:] if argv is None else argv:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    differing = 0
    with tempfile.TemporaryDirectory(prefix="henonlab-parity-") as tmp:
        for job in corpus.JOBS:
            lines = corpus.diff(job.name, run(Path(tmp), job))
            differing += bool(lines)
            for line in lines:
                print(line)
    print(f"{differing} of {len(corpus.JOBS)} jobs differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
