"""GT exponentiation helpers.

The privacy layer's only extra prover cost is one GT exponentiation
``R = e(g1, epsilon)^z`` (paper Fig. 3).  Since the base ``e(g1, epsilon)``
is fixed per contract, a windowed fixed-base table turns the exponentiation
into ~64 multiplications — this is why the "+ security" overhead in the
paper's Figs. 8/9 stays small
(``benchmarks/bench_ablations.py::test_ablation_gt_fixed_base`` measures the
win).

All chains here run on the flat 12-int kernels (:func:`_f12mul`,
:func:`_f12sqr_cyclo`): raw tuples in, one :class:`Fp12` constructed at the
end.  Exact modular arithmetic keeps every result bit-identical to the
object-based tower.
"""

from __future__ import annotations

from .constants import CURVE_ORDER
from .fields import Fp12, _f12conj, _f12mul, _f12sqr_cyclo


def gt_pow(base: Fp12, exponent: int) -> Fp12:
    """Variable-base GT exponentiation using cyclotomic squarings.

    Valid only for unitary elements (anything coming out of the pairing).
    """
    exponent %= CURVE_ORDER
    if exponent == 0:
        return Fp12.one()
    result = None
    power = base._flat12()
    while exponent:
        if exponent & 1:
            result = power if result is None else _f12mul(result, power)
        exponent >>= 1
        if exponent:
            power = _f12sqr_cyclo(power)
    return Fp12._from_flat12(result)


def gt_multi_pow(items: list[tuple[Fp12, int]]) -> Fp12:
    """prod_i base_i^exp_i with ONE shared cyclotomic squaring chain.

    The batch verifier's rho-blinding accumulates ``prod commitment^rho``
    over 128-bit exponents; running all bases down a single square-and-
    multiply chain costs ~128 squarings total instead of ~128 per base.
    Digits are width-4 signed NAF — negative digits multiply by the
    conjugate, which IS the inverse for unitary elements (pairing outputs),
    so the odd-multiple tables stay tiny.  Exact field arithmetic makes the
    result bit-identical to multiplying independent :func:`gt_pow` calls.
    """
    tables: list[list[tuple]] = []
    nafs: list[list[int]] = []
    for base, exponent in items:
        exponent %= CURVE_ORDER
        if exponent == 0:
            continue
        # Odd multiples base^1, base^3, base^5, base^7 for width-4 NAF.
        flat = base._flat12()
        squared = _f12sqr_cyclo(flat)
        row = [flat]
        for _ in range(3):
            row.append(_f12mul(row[-1], squared))
        tables.append(row)
        digits = []
        while exponent:
            if exponent & 1:
                d = exponent & 15
                if d >= 8:
                    d -= 16
                exponent -= d
            else:
                d = 0
            digits.append(d)
            exponent >>= 1
        nafs.append(digits)
    if not nafs:
        return Fp12.one()
    top = max(len(naf) for naf in nafs)
    result = None
    for bit in range(top - 1, -1, -1):
        if result is not None:
            result = _f12sqr_cyclo(result)
        for row, naf in zip(tables, nafs):
            if bit >= len(naf):
                continue
            d = naf[bit]
            if d > 0:
                entry = row[(d - 1) // 2]
            elif d < 0:
                entry = _f12conj(row[(-d - 1) // 2])
            else:
                continue
            result = entry if result is None else _f12mul(result, entry)
    if result is None:
        return Fp12.one()
    return Fp12._from_flat12(result)


class GTFixedBase:
    """Fixed-base GT exponentiation with a precomputed window table.

    ``window`` bits per digit; the table holds ``ceil(256/window)`` rows of
    ``2^window - 1`` entries.  With the default window of 4 an exponentiation
    costs ~64 GT multiplications and no squarings.  Table entries are stored
    as flat 12-int tuples so :meth:`pow` never allocates tower objects
    mid-chain.
    """

    def __init__(self, base: Fp12, window: int = 4):
        if window < 1 or window > 8:
            raise ValueError("window must be between 1 and 8")
        self.base = base
        self.window = window
        bits = CURVE_ORDER.bit_length()
        self._rows = (bits + window - 1) // window
        self._table: list[list[tuple]] = []
        row_base = base._flat12()
        for _ in range(self._rows):
            row = [row_base]
            for _ in range((1 << window) - 2):
                row.append(_f12mul(row[-1], row_base))
            self._table.append(row)
            for _ in range(window):
                row_base = _f12sqr_cyclo(row_base)

    @classmethod
    def _from_table(
        cls, base: Fp12, window: int, table: list[list[tuple]]
    ) -> "GTFixedBase":
        """Rebuild from a persisted table (skips the multiplication chain)."""
        ctx = cls.__new__(cls)
        ctx.base = base
        ctx.window = window
        ctx._rows = (CURVE_ORDER.bit_length() + window - 1) // window
        ctx._table = table
        return ctx

    def pow(self, exponent: int) -> Fp12:
        exponent %= CURVE_ORDER
        result = None
        mask = (1 << self.window) - 1
        row_index = 0
        while exponent:
            digit = exponent & mask
            if digit:
                entry = self._table[row_index][digit - 1]
                result = entry if result is None else _f12mul(result, entry)
            exponent >>= self.window
            row_index += 1
        if result is None:
            return Fp12.one()
        return Fp12._from_flat12(result)
