"""The GF(256) row loop: native kernel, numpy fallback and the loader.

``gf_matmul`` runs whichever backend ``gf256.backend()`` chose: the best
loop of the C kernel ``gf256_kernel.c`` for this CPU when ``repro.native``
builds it and the known-answer probe agrees, else the numpy table-gather
loop.  Every property here runs on numpy, on the chosen loop and on each
further kernel loop this CPU can run — the ``backend`` fixture patches the
module's handle — and the numpy run is the only one a compiler-less host has
(its "native" run then repeats the fallback, and the per-loop runs skip).
``gf_matmul_ref`` is the oracle throughout.
"""

from __future__ import annotations

import ast
import ctypes
import fnmatch
import shutil
import types
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import native
from repro.chain import Blockchain
from repro.rpc import ServiceNode
from repro.storage import erasure, gf256
from repro.storage.erasure import ReedSolomonCode, Shard
from repro.storage.gf256 import gf_inv, gf_matmul, gf_matmul_ref, gf_matrix_invert, gf_mul

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture(
    scope="module", params=["numpy", "native", "native-ssse3", "native-scalar"]
)
def backend(request):
    if request.param == "numpy":
        chosen = gf256.Backend("numpy", gf256._matmul_numpy)
    elif request.param == "native":
        chosen = gf256.backend()
    else:
        loops = {loop.name: loop for loop in gf256.selectable()}
        if request.param not in loops or request.param == gf256.backend().name:
            pytest.skip(f"{request.param} is not a further loop on this host")
        chosen = loops[request.param]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(gf256, "_backend", chosen)
        yield chosen


def _coefficients(rng, rows: int, k: int) -> list[list[int]]:
    """Random coefficient rows with 0 and 1 over-represented: the two
    values a row loop may special-case."""
    values = rng.integers(0, 256, size=(rows, k))
    pick = rng.integers(0, 4, size=(rows, k))
    values[pick == 0] = 0
    values[pick == 1] = 1
    return values.tolist()


# --------------------------------------------------------------------- #
# gf_matmul on every backend                                            #
# --------------------------------------------------------------------- #

def test_matmul_equals_reference_over_shapes(backend):
    rng = np.random.default_rng(2)
    lengths = [0, 1, 15, 16, 17, 31, 33]
    for rows in range(10):
        for k in range(1, 10):
            for length in lengths + [int(rng.integers(0, 201))]:
                matrix = _coefficients(rng, rows, k)
                shards = rng.integers(0, 256, size=(k, length), dtype=np.uint8)
                assert np.array_equal(
                    gf_matmul(matrix, shards), gf_matmul_ref(matrix, shards)
                ), (backend.name, rows, k, length)
    # The widest product a GF(256) code needs, and one wider than that.
    for rows, k, length in ((5, 255, 37), (3, 300, 33)):
        matrix = _coefficients(rng, rows, k)
        shards = rng.integers(0, 256, size=(k, length), dtype=np.uint8)
        assert np.array_equal(
            gf_matmul(matrix, shards), gf_matmul_ref(matrix, shards)
        ), (backend.name, rows, k, length)


def test_matmul_takes_non_contiguous_shards(backend):
    rng = np.random.default_rng(3)
    matrix = _coefficients(rng, 5, 4)
    wide = rng.integers(0, 256, size=(4, 2 * 37), dtype=np.uint8)
    tall = rng.integers(0, 256, size=(37, 4), dtype=np.uint8)
    for shards in (wide[:, ::2], wide[:, 5:42], tall.T, np.asfortranarray(wide)):
        assert not shards.flags.c_contiguous
        assert np.array_equal(
            gf_matmul(matrix, shards), gf_matmul_ref(matrix, shards)
        )


def test_matmul_takes_an_array_matrix(backend):
    rng = np.random.default_rng(4)
    matrix = _coefficients(rng, 3, 6)
    shards = rng.integers(0, 256, size=(6, 50), dtype=np.uint8)
    assert np.array_equal(
        gf_matmul(np.array(matrix, dtype=np.uint8), shards),
        gf_matmul_ref(matrix, shards),
    )


@settings(max_examples=25, deadline=None)
@given(
    data=st.binary(min_size=1, max_size=300),
    k=st.integers(1, 8),
    extra=st.integers(0, 8),
    draw=st.data(),
)
def test_any_k_shards_in_any_order_with_duplicates_decode(backend, data, k, extra, draw):
    n = k + extra
    code = ReedSolomonCode(n, k)
    shards = code.encode(data)
    order = draw.draw(st.permutations(range(n)))
    kept = order[: draw.draw(st.integers(k, n))]
    duplicates = draw.draw(st.lists(st.sampled_from(kept), max_size=4))
    selection = draw.draw(st.permutations(kept + duplicates))
    assert code.decode([shards[i] for i in selection], len(data)) == data


# --------------------------------------------------------------------- #
# The codec computes only the rows it lacks                             #
# --------------------------------------------------------------------- #

@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(1, 6),
    extra=st.integers(0, 7),
    pattern=st.sampled_from(["systematic", "parity", "mixed"]),
    tampered=st.booleans(),
    draw=st.data(),
)
def test_codec_equals_full_inversion_on_every_erasure_pattern(
    backend, k, extra, pattern, tampered, draw
):
    """``encode`` is the whole generator times the data; ``decode`` is the
    inverse of the first k chosen rows times those chunks — on codewords,
    and on sets whose parity chunks are XOR-ed with 0x5A, which are not."""
    n = k + extra
    if pattern == "parity" and extra < k:
        n = 2 * k
    code = ReedSolomonCode(n, k)
    data = draw.draw(st.binary(min_size=1, max_size=48))
    shards = code.encode(data)
    length = code.shard_length(len(data))
    stack = np.frombuffer(data.ljust(k * length, b"\x00"), dtype=np.uint8).reshape(k, length)
    encoded = gf_matmul_ref(code.matrix.tolist(), stack)
    assert [shard.data for shard in shards] == [row.tobytes() for row in encoded]

    pool = {"systematic": range(k), "parity": range(k, n), "mixed": range(n)}[pattern]
    indices = draw.draw(st.lists(st.sampled_from(pool), min_size=k, unique=True))
    chosen = [
        Shard(i, bytes(b ^ 0x5A for b in shards[i].data) if tampered and i >= k else shards[i].data)
        for i in indices
    ]
    first = sorted(chosen, key=lambda shard: shard.index)[:k]
    inverse = gf_matrix_invert(code.matrix[[shard.index for shard in first]])
    expected = gf_matmul_ref(
        inverse.tolist(),
        np.array([np.frombuffer(shard.data, dtype=np.uint8) for shard in first]),
    )
    assert code.decode(chosen, k * length) == expected.tobytes()
    if not tampered:
        assert code.decode(chosen, len(data)) == data


@pytest.mark.parametrize("systematic", [0, 1, 27, 79, 80])
def test_codec_inverts_only_the_missing_rows(monkeypatch, systematic):
    """At the DA shape (240, 80): ``encode`` asks ``gf_matmul`` for the 160
    parity rows only, and a decode from s systematic chunks inverts one
    (80 - s)-square matrix — none when every data row is there."""
    code = ReedSolomonCode(240, 80)
    inverted, products = [], []
    monkeypatch.setattr(
        erasure, "gf_matrix_invert",
        lambda matrix: inverted.append(np.shape(matrix)) or gf_matrix_invert(matrix),
    )
    monkeypatch.setattr(
        erasure, "gf_matmul",
        lambda matrix, shards: products.append(len(matrix)) or gf_matmul(matrix, shards),
    )
    data = bytes(range(256)) * 5
    shards = code.encode(data)
    assert products == [160]
    chosen = shards[80 - systematic : 80] + shards[80 : 160 - systematic]
    assert code.decode(chosen[::-1], len(data)) == data
    missing = 80 - systematic
    assert inverted == ([(missing, missing)] if missing else [])


# --------------------------------------------------------------------- #
# gf_matrix_invert                                                      #
# --------------------------------------------------------------------- #

def _invert_by_lists(matrix: list[list[int]]) -> list[list[int]]:
    """The list-based Gauss-Jordan elimination gf_matrix_invert replaced,
    kept as the reference it must equal."""
    n = len(matrix)
    augmented = [list(row) + [1 if i == j else 0 for j in range(n)]
                 for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if augmented[r][col]), None)
        if pivot is None:
            raise ValueError("singular matrix over GF(256)")
        augmented[col], augmented[pivot] = augmented[pivot], augmented[col]
        inv = gf_inv(augmented[col][col])
        augmented[col] = [gf_mul(value, inv) for value in augmented[col]]
        for row in range(n):
            if row != col and augmented[row][col]:
                factor = augmented[row][col]
                augmented[row] = [
                    augmented[row][idx] ^ gf_mul(factor, augmented[col][idx])
                    for idx in range(2 * n)
                ]
    return [row[n:] for row in augmented]


def _random_invertible(rng, n: int) -> list[list[int]]:
    while True:
        matrix = rng.integers(0, 256, size=(n, n)).tolist()
        try:
            _invert_by_lists(matrix)
        except ValueError:
            continue
        return matrix


def _singular(rng, n: int) -> list[list[int]]:
    """Rank n - 1: one row is a GF(256) combination of two others."""
    matrix = rng.integers(0, 256, size=(n, n)).tolist()
    a, b = (int(rng.integers(0, 256)) for _ in range(2))
    source = [int(i) for i in rng.choice(n, size=3, replace=False)]
    matrix[source[2]] = [
        gf_mul(a, x) ^ gf_mul(b, y)
        for x, y in zip(matrix[source[0]], matrix[source[1]])
    ]
    return matrix


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 40, 80])
def test_inverse_times_matrix_is_identity(n):
    matrix = _random_invertible(np.random.default_rng(n), n)
    inverse = gf_matrix_invert(matrix)
    assert inverse.dtype == np.uint8 and inverse.shape == (n, n)
    assert np.array_equal(gf_matmul_ref(matrix, inverse), np.eye(n, dtype=np.uint8))


def test_singular_matrices_raise():
    rng = np.random.default_rng(5)
    cases = [[[0]], [[0, 0], [0, 0]], [[1, 2], [2, 4]]]
    cases += [_singular(rng, n) for n in (3, 5, 16, 80)]
    for matrix in cases:
        with pytest.raises(ValueError, match="singular"):
            gf_matrix_invert(matrix)


def test_non_square_matrix_raises():
    with pytest.raises(ValueError, match="square"):
        gf_matrix_invert([[1, 2, 3], [4, 5, 6]])


def test_inverse_equals_list_elimination_on_random_matrices():
    rng = np.random.default_rng(6)
    singular = 0
    for trial in range(240):
        n = int(rng.integers(1, 13))
        matrix = (
            _singular(rng, n) if n >= 3 and trial % 5 == 0
            else rng.integers(0, 256, size=(n, n)).tolist()
        )
        try:
            expected = _invert_by_lists(matrix)
        except ValueError:
            singular += 1
            with pytest.raises(ValueError):
                gf_matrix_invert(matrix)
            continue
        assert gf_matrix_invert(matrix).tolist() == expected
    assert 0 < singular < 240


# --------------------------------------------------------------------- #
# Loader and probe                                                      #
# --------------------------------------------------------------------- #

def test_kernel_builds_and_is_chosen_wherever_a_compiler_exists(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    selected = gf256._select_backend()
    if shutil.which("cc") is None:
        assert selected.name == "numpy" and "no C compiler" in selected.reason
        return
    assert selected.name in ("native-avx2", "native-ssse3", "native-scalar")
    assert selected.reason == "" and selected.describe() == selected.name
    built = list(tmp_path.glob("gf256_kernel-*.so"))
    assert len(built) == 1
    # A second load opens the cached file instead of rebuilding it.
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    assert gf256._select_backend().name == selected.name


def test_no_compiler_falls_back_to_numpy(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(native.shutil, "which", lambda name: None)
    selected = gf256._select_backend()
    assert selected.name == "numpy"
    assert selected.reason == "no C compiler: cc is not on PATH"
    assert selected.describe() == "numpy (no C compiler: cc is not on PATH)"
    assert not list(tmp_path.iterdir())


def test_failed_build_falls_back_to_numpy(tmp_path, monkeypatch):
    broken = tmp_path / "cc"
    broken.write_text("#!/bin/sh\necho 'cc: internal error' >&2\nexit 3\n")
    broken.chmod(0o755)
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path / "cache")
    monkeypatch.setattr(native.shutil, "which", lambda name: str(broken))
    selected = gf256._select_backend()
    assert selected.name == "numpy"
    assert selected.reason == "cc failed (exit 3): cc: internal error"
    assert not list((tmp_path / "cache").iterdir())  # nothing half-built left


def test_missing_source_is_a_named_reason(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    with pytest.raises(native.NativeUnavailable, match="absent.c is not installed"):
        native.load_library("repro.storage", "absent.c")


def _faulty_kernel(faulty_isa: int, fault: str):
    """A stand-in for ``lib.gf_matmul``: right on every loop but
    ``faulty_isa``, which gets ``fault`` wrong — where a row-blocked loop
    can go wrong while the bulk of its output stays right."""

    def gf_matmul(isa, table, coefficients, rows, k, shards, length, out):
        matrix = np.ctypeslib.as_array(
            (ctypes.c_uint8 * (rows * k)).from_address(coefficients)
        ).reshape(rows, k)
        stack = np.ctypeslib.as_array(
            (ctypes.c_uint8 * (k * length)).from_address(shards)
        ).reshape(k, length)
        result = np.ctypeslib.as_array(
            (ctypes.c_uint8 * (rows * length)).from_address(out)
        ).reshape(rows, length)
        if isa == faulty_isa:
            if fault == "no output":
                return
            if fault == "coefficient 1 read as 0":
                matrix = np.where(matrix == 1, 0, matrix)
        result[:] = gf_matmul_ref(matrix.tolist(), stack)
        if isa != faulty_isa:
            return
        if fault == "fifth row dropped" and rows == 5:
            result[4] = 0
        elif fault == "tail past 32 B dropped" and length % 32:
            result[:, length - length % 32 :] = 0
        elif fault == "k = 1 dropped" and k == 1:
            result[:] = 0

    return gf_matmul


def test_probe_disagreement_falls_back_to_numpy(monkeypatch):
    """The probe runs every loop the CPU can pick, on shapes at the row
    blocks' and the vector widths' edges: one wrong loop, wrong only there,
    sends the process to numpy with a reason that names the loop."""
    faults = ["no output", "fifth row dropped", "tail past 32 B dropped",
              "k = 1 dropped", "coefficient 1 read as 0"]
    for faulty_isa, loop in enumerate(("native-scalar", "native-ssse3", "native-avx2")):
        for fault in faults:
            fake = types.SimpleNamespace(
                gf_matmul=_faulty_kernel(faulty_isa, fault), gf_kernel_isa=lambda: 2
            )
            monkeypatch.setattr(native, "load_library", lambda package, filename: fake)
            selected = gf256._select_backend()
            assert selected.name == "numpy", (loop, fault)
            assert selected.reason == (
                f"known-answer probe: {loop} disagrees with gf_matmul_ref"
            ), (loop, fault)


def test_probe_runs_only_the_loops_the_cpu_can_pick(monkeypatch):
    fake = types.SimpleNamespace(
        gf_matmul=_faulty_kernel(2, "no output"), gf_kernel_isa=lambda: 1
    )
    monkeypatch.setattr(native, "load_library", lambda package, filename: fake)
    assert gf256._select_backend().name == "native-ssse3"
    assert [loop.name for loop in gf256.selectable()] == [
        "native-ssse3", "native-scalar", "numpy"
    ]


def test_node_status_names_the_backend(backend):
    status = ServiceNode(Blockchain()).node_status()
    assert status["erasure_backend"] == backend.describe()


# --------------------------------------------------------------------- #
# Packaging                                                             #
# --------------------------------------------------------------------- #

def test_kernel_source_ships_as_package_data():
    source = resources.files("repro.storage").joinpath("gf256_kernel.c")
    assert b"gf_matmul" in source.read_bytes()
    setup = ast.parse((REPO / "setup.py").read_text())
    call = next(
        node for node in ast.walk(setup)
        if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "setup"
    )
    package_data = ast.literal_eval(
        next(kw.value for kw in call.keywords if kw.arg == "package_data")
    )
    for path in (REPO / "src" / "repro").rglob("*.c"):
        package = ".".join(path.parent.relative_to(REPO / "src").parts)
        assert any(
            fnmatch.fnmatch(path.name, pattern)
            for pattern in package_data.get(package, ())
        ), f"{path.name} is not declared as package_data of {package}"
