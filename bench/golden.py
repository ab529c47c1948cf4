"""Write the golden copies the benchmark compares every job against.

Run from the repository root:

    python3 bench/golden.py

For every workload this runs one pass at the default seed and stores,
per job, the ``Report.format()`` text (or the CLI's printed output), the
exit code and the sha256 of the output document in
``bench/golden/<workload>.json``. It refuses to write a workload whose
jobs disagree with their known answers in ``bench/known.json``.

Rewrite the golden copies only in a change that means to alter report
text, and review their diff: a change that claims a speed-up must leave
them byte-identical.
"""

from __future__ import annotations

import json
import sys

from run import HERE, OUT_DIR, load_bcsys, read_json, run_pass
from speed import plain_measure


def main() -> int:
    load_bcsys()
    import workloads

    known = read_json(HERE / "known.json")
    status = 0
    for name in workloads.WORKLOADS:
        workdir = OUT_DIR / "work" / name
        workdir.mkdir(parents=True, exist_ok=True)
        jobs = next(workloads.job_list(name, workloads.DEFAULT_SEED, workdir))
        results = run_pass(jobs, known, None, plain_measure)
        wrong = [f"{r.key}: {r.error}" for r in results if r.error]
        if wrong:
            print(f"{name}: not written, known answers disagree:", *wrong, sep="\n  ")
            status = 1
            continue
        golden = {
            job.golden: {"text": r.outcome.text, "exit": r.outcome.exit, "sha256": r.outcome.sha256}
            for job, r in zip(jobs, results)
        }
        path = HERE / "golden" / f"{name}.json"
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{name}: {len(golden)} golden entries written to {path.relative_to(HERE.parent)}")
    return status


if __name__ == "__main__":
    sys.exit(main())
