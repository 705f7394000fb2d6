"""The suites that pin BN254 results, run again on both backends.

``test_fastpath_differential.py``, ``test_pairing.py`` and ``test_msm.py``
run where they are collected on the process's backend (the native kernel
wherever a compiler exists).  Their test functions and classes are
collected here a second time under the ``crypto_backend`` fixture, once
on the pure-Python references and once on the chosen backend, so both
stay pinned without renaming any original test id.
"""

from __future__ import annotations

import pytest

import test_fastpath_differential
import test_msm
import test_pairing

pytestmark = pytest.mark.usefixtures("crypto_backend")

for _module in (test_fastpath_differential, test_pairing, test_msm):
    globals().update(
        (name, value)
        for name, value in vars(_module).items()
        if name.startswith(("test_", "Test"))
    )
