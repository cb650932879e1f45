"""The benchmark's modules import each other as siblings (``python3
bench/run.py`` puts ``bench/`` first on ``sys.path``); do the same here."""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
