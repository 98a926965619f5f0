"""Self-tests of the benchmark harness (not part of Tier-1's ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q
"""

import sys
from pathlib import Path

PERF = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(PERF))
