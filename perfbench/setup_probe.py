"""Set-up probe, run in a fresh interpreter by run.py.

    python3 perfbench/setup_probe.py SRC_DIR SCENARIO.json...

Prints the seconds from before ``import diracgeo`` until every scenario is
parsed and its fixture built, through the runner's own loaders.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from diracgeo import cli  # noqa: E402

for path in sys.argv[2:]:
    cli.load_fixture(cli.load_scenario(path).get("fixture", "pair-groupoid-r2"))
print(repr(time.perf_counter() - start))
