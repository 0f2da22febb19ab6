"""One paced cold start, run in a fresh interpreter by ``run.py``.

Times the three set-up phases a user pays before the first analysis:
importing the package, ``compiled_cpu()`` and assembling the draw's
programs.  Process spawn is excluded.  Prints one JSON object.

Usage: python3 perfbench/coldstart.py <workload> <seed>
"""

import json
import sys
from pathlib import Path
from time import perf_counter

start = perf_counter()
import numpy  # noqa: E402,F401  (the probe needs it; its import is timed)

numpy_s = perf_counter() - start

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from pace import Pacer  # noqa: E402
from workloads import Programs, draw  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    with Pacer() as pacer:
        # numpy was imported before the pacer existed: pace it with the
        # first probe.
        factor = (pacer.ref / pacer.probes[0]) ** pacer.exponent
        phases = {"import_s": numpy_s * factor}
        mark = pacer.mark()
        import repro.core.tracker  # noqa: F401
        import repro.transform  # noqa: F401
        import repro.workloads.registry  # noqa: F401
        from repro.cpu import compiled_cpu

        phases["import_s"] += pacer.mark() - mark
        mark = pacer.mark()
        compiled_cpu()
        phases["compiled_cpu_s"] = pacer.mark() - mark
        mark = pacer.mark()
        Programs(draw(workload, seed))
        phases["assemble_s"] = pacer.mark() - mark
    print(json.dumps(phases))


if __name__ == "__main__":
    main()
