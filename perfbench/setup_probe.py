"""Time a user's set-up in a fresh interpreter: import sqkdlab and finish one call.

    python3 perfbench/setup_probe.py ENTRY CONFIG_JSON

ENTRY is ``run_batch`` or ``run_search``; CONFIG_JSON holds RunConfig
fields.  Prints the seconds from just before ``import sqkdlab`` (which
imports numpy) to the end of the call.
"""

import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

entry, config = sys.argv[1], json.loads(sys.argv[2])
started = time.perf_counter()
from sqkdlab import harness  # noqa: E402  (the import is part of what is timed)

getattr(harness, entry)(harness.RunConfig(**config))
print(time.perf_counter() - started)
