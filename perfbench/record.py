"""Record the reference answers that the benchmark's gate compares against.

    python3 perfbench/record.py

Run it from the root of a checkout, at the commit whose answers are the
reference; it rewrites ``perfbench/references.json``. The seed does not
change any answer (see ``gen.py``), so one pass at seed 0 suffices. The
deadline instance gets the bounds a 60 s run certifies instead of an answer.
"""

from __future__ import annotations

import json
import random
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from chargeplan.exact import SolverConfig, branch_and_bound  # noqa: E402

import workloads  # noqa: E402


def main() -> int:
    refs = {}
    work = HERE / ".work" / "record"
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls()
            wl.setup(0, workloads.fresh_dir(work))
            _, failures = wl.referee()
            entries = {}
            for s in wl.run_pass(random.Random(0)):
                if s.report is not None:
                    failures += workloads.verify_report(s)
                if s.exit_code != 0:
                    failures.append(f"{s.name}: exit code {s.exit_code}")
                entry = {k: v for k, v in (("objective", s.objective), ("terminated_by", s.terminated_by),
                                           ("digest", s.digest)) if v is not None}
                entries[s.name] = entry
            if name == "exact-proof":
                rep = branch_and_bound(wl.deadline, SolverConfig(time_limit=60.0))
                entries["deadline"] = {"terminated_by": rep.terminated_by, "lower_60s": rep.lower_bound,
                                       "upper_60s": rep.upper_bound}
            if failures:
                print("\n".join(failures), file=sys.stderr)
                return 1
            refs[name] = entries
            print(f"{name}: {len(entries)} references", flush=True)
    finally:
        shutil.rmtree(HERE / ".work", ignore_errors=True)
    (HERE / "references.json").write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
