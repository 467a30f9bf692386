"""Reproduce the adaptive-retrain cliff kept out of the online-retrain workload.

Usage, from the root of a checkout::

    python3 perfbench/cliff.py

Online scheduling retrains a maximum-latency model by shifting its deadline
by the longest rounded wait in the pending batch (Section 6.3).  A VM crash
that requeues a query which has already waited 630 s shifts the 900 s
deadline to 270 s, below the 360 s of the longest template (T9), so no
schedule meets it and the A* re-search of every stored sample explores far
more of the graph than usual.  The script trains the maximum-latency tenant
on 60 samples of 8 queries, then times one ordinary shift (60 s) and the
cliff shift, printing wall time and A* expansions for each.  It is not part
of any workload: one such retrain takes about a minute.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path


#: Training samples of the maximum-latency tenant, and the cliff's shift.
SAMPLES = 60
SHIFT = 630.0


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro import TrainingConfig, WiSeDBService, tpch_templates
    from repro.adaptive.retraining import AdaptiveModeler
    from repro.sla.factory import default_goal

    templates = tpch_templates(10)
    goal = default_goal("max", templates)
    config = TrainingConfig(
        num_samples=SAMPLES, queries_per_sample=8, seed=0, max_expansions=120_000
    )
    with tempfile.TemporaryDirectory(dir=Path.cwd()) as registry:
        service = WiSeDBService(registry=registry, n_jobs=1)
        service.register("max", templates, goal, config=config)
        base = service.train("max")
        modeler = AdaptiveModeler(service.tenant("max").generator, base)
        for shift in (60.0, SHIFT):
            started = time.perf_counter()
            _, report = modeler.retrain(goal.shifted(shift))
            print(
                f"shift {shift:5.0f} s -> deadline {goal.deadline - shift:5.0f} s: "
                f"{time.perf_counter() - started:7.2f} s, "
                f"{report.total_expansions} expansions, "
                f"{report.samples_skipped} samples over budget"
            )
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
