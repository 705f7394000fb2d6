"""What the paper argues against, beside the two tables that price it.

``snark/`` (the Section IV Groth16 strawman), ``baselines/`` (MAC and
Sia-style auditing, the Table I matrix), ``beacons/`` (the Section V-E
beacon survey) and ``mimc.py`` are plain modules that import ``repro.*``;
nothing in the installed package imports them back (AST guard in
``tests/test_scenarios.py``).  This directory goes on ``sys.path`` so
``import snark`` / ``baselines`` / ``beacons`` / ``mimc`` resolve here.
The ``report`` / ``rng`` / ``params`` / ``audit_system`` fixtures are the
bench-scale ones of ``benchmarks/conftest.py``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
