"""The ``crypto_backend`` fixture: BN254 inner loops on both backends.

``kernel.backend()`` picks the native kernel wherever it builds and passes
its probe; the fixture patches the module's handle so a test runs once on
the pure-Python references and once on the chosen backend.  On a host
without a compiler the second run repeats the references rather than
skipping.
"""

from __future__ import annotations

import pytest

from repro.crypto.bn254 import kernel

#: The pure-Python references, as a fallback backend with no reason.
PYTHON = kernel.Backend("python")


@pytest.fixture(scope="module", params=["python", "native"])
def crypto_backend(request):
    chosen = PYTHON if request.param == "python" else kernel.backend()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_backend", chosen)
        yield chosen
