"""Build-once loader for the package's small C kernels.

A kernel is one C source file shipped inside a ``repro`` package (declared
as ``package_data`` in ``setup.py``).  :func:`load_library` compiles it
with the system ``cc`` — plain ``-O2``, no ``-march`` flag, so the object
runs on any CPU of the host's architecture and picks its instruction set at
run time — into a per-user cache file named by a hash of the source, the
compile command and the machine type.  The file is published with
``os.replace``, so concurrent first users never load a half-written object,
and every later process only opens it.  Calls go through stdlib
``ctypes``: no Python headers, no third-party build tool.

Nothing here decides whether native code is used.  The caller checks what
it loaded against its own reference (a known-answer probe) and keeps its
pure-Python or numpy path as the fallback; :class:`NativeUnavailable`
carries the reason a kernel could not be built or opened.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
from importlib import resources
from pathlib import Path

#: Where compiled kernels live, one file per (source, command, machine).
CACHE_DIR = Path.home() / ".cache" / "repro" / "native"

_COMPILE_FLAGS = ("-O2", "-shared", "-fPIC", "-x", "c", "-")
_COMPILE_TIMEOUT_S = 120


class NativeUnavailable(RuntimeError):
    """A kernel could not be built or opened; the message is the reason."""


def load_library(package: str, filename: str) -> ctypes.CDLL:
    """Open the compiled ``package/filename`` kernel, building it on a miss.

    Raises :class:`NativeUnavailable` naming the reason when the source is
    not installed, there is no compiler, the build fails, or the cache
    cannot be written or read.
    """
    try:
        source = resources.files(package).joinpath(filename).read_bytes()
    except OSError as exc:
        raise NativeUnavailable(f"kernel source {filename} is not installed: {exc}") from exc
    key = hashlib.sha256(
        b"\0".join(
            [source, " ".join(_COMPILE_FLAGS).encode(), platform.machine().encode()]
        )
    ).hexdigest()[:20]
    path = CACHE_DIR / f"{Path(filename).stem}-{key}.so"
    if not path.exists():
        _build(source, path)
    try:
        return ctypes.CDLL(str(path))
    except OSError as exc:
        raise NativeUnavailable(f"cannot open {path.name}: {exc}") from exc


def _build(source: bytes, path: Path) -> None:
    compiler = shutil.which("cc")
    if compiler is None:
        raise NativeUnavailable("no C compiler: cc is not on PATH")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        # Built beside its final name so os.replace never crosses filesystems.
        with tempfile.TemporaryDirectory(dir=path.parent) as scratch_dir:
            scratch = os.path.join(scratch_dir, path.name)
            result = subprocess.run(
                [compiler, *_COMPILE_FLAGS, "-o", scratch],
                input=source,
                capture_output=True,
                timeout=_COMPILE_TIMEOUT_S,
            )
            if result.returncode != 0:
                detail = result.stderr.decode(errors="replace").strip().splitlines()
                raise NativeUnavailable(
                    f"cc failed (exit {result.returncode})"
                    + (f": {detail[0]}" if detail else "")
                )
            os.replace(scratch, path)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise NativeUnavailable(f"cannot build {path.name}: {exc}") from exc
