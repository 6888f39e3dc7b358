"""Make the benchmark helpers importable as a plain module.

Every simulator here is built by ``build_simulator``, which resets the
process-global state (packet ids) first, so no per-test reset is needed.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(__file__))
