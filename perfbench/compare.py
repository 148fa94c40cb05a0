"""Report whether repeated runs produced identical trajectories.

    python3 perfbench/compare.py [RESULTS_DIR]

Groups the result files ``run.py`` wrote (default ``perfbench/results``)
by workload, seed and episode length (warm-up plus timed steps), and says
for each group whether every episode of every run had the same logical-mode
trajectory digest and the same delivery count. Runs of different source trees fall in one group, so
two sets of runs on a parent and a change show whether the change kept
logical-mode behaviour byte-identical. Informational: the exit code is 0
whatever the outcome.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def summarise(results_dir: Path) -> list[dict]:
    groups: dict[tuple, list[dict]] = {}
    for path in sorted(results_dir.glob("*.json")):
        rec = json.loads(path.read_text())
        key = (rec["workload"], rec["seed"], rec["warmup"], rec["steps"])
        groups.setdefault(key, []).append(rec)
    rows = []
    for (workload, seed, _, steps), recs in sorted(groups.items()):
        episodes = [ep for rec in recs for ep in rec["trajectory"]]
        rows.append({
            "workload": workload, "seed": seed, "steps": steps,
            "runs": len(recs),
            "sources": len({rec["environment"]["source_sha256"] for rec in recs}),
            "digests_identical": len({ep["sha256"] for ep in episodes}) == 1,
            "deliveries_identical": len({ep["deliveries"] for ep in episodes}) == 1,
        })
    return rows


def main(argv: list[str]) -> int:
    results_dir = Path(argv[0]) if argv else RESULTS
    rows = summarise(results_dir)
    if not rows:
        print(f"no result files in {results_dir}")
        return 0
    for r in rows:
        print(f"{r['workload']:30s} seed {r['seed']:<8d} steps {r['steps']:<5d} "
              f"runs {r['runs']:<3d} sources {r['sources']}  "
              f"digests {'identical' if r['digests_identical'] else 'DIFFER'}  "
              f"deliveries {'identical' if r['deliveries_identical'] else 'DIFFER'}")
    same = all(r["digests_identical"] and r["deliveries_identical"] for r in rows)
    print("all groups identical" if same else "some groups DIFFER")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
