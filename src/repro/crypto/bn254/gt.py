"""GT exponentiation helpers.

The privacy layer's only extra prover cost is one GT exponentiation
``R = e(g1, epsilon)^z`` (paper Fig. 3).  Since the base ``e(g1, epsilon)``
is fixed per key, a Lim–Lee comb over it turns the exponentiation into at
most 31 cyclotomic squarings and 32 multiplications, and the comb costs
about two variable-base powers to build — this is why the "+ security"
overhead in the paper's Figs. 8/9 stays small even when keys turn over
(``benchmarks/bench_ablations.py::test_ablation_gt_fixed_base`` measures
both).

Two chains live here, the shared multi-pow ladder (variable bases, which
:func:`gt_pow` runs with one term) and the fixed-base comb.  Both run on
the flat 12-int layout of :meth:`Fp12._flat12`: in the native kernel
when :func:`.kernel.active` returns one, else in the pure-Python
references below over :func:`_f12mul` / :func:`_f12sqr_cyclo` (raw tuples
in, one :class:`Fp12` constructed at the end).  The ladder's digits come
from :func:`.curve._wnaf` at width 4.  Exact modular arithmetic keeps
every result bit-identical to the object-based tower.
"""

from __future__ import annotations

from .constants import CURVE_ORDER
from .curve import _wnaf
from .fields import Fp12, _f12conj, _f12mul, _f12sqr_cyclo
from .kernel import active

#: The comb's one shape: ``TEETH`` rows of ``COLUMNS`` exponent bits cover
#: 256 bits, so any exponent mod r fits, in a table of 2^8 - 1 = 255 entries.
TEETH = 8
COLUMNS = 32


def gt_pow(base: Fp12, exponent: int) -> Fp12:
    """Variable-base GT exponentiation: :func:`gt_multi_pow` of one term.

    Valid only for unitary elements (anything coming out of the pairing).
    """
    return gt_multi_pow([(base, exponent)])


def gt_multi_pow(items: list[tuple[Fp12, int]]) -> Fp12:
    """prod_i base_i^exp_i with ONE shared cyclotomic squaring chain.

    The batch verifier's rho-blinding accumulates ``prod commitment^rho``
    over 128-bit exponents; running all bases down a single square-and-
    multiply chain costs ~128 squarings total instead of ~128 per base.
    Digits are width-4 signed NAF — negative digits multiply by the
    conjugate, which IS the inverse for unitary elements (pairing outputs),
    so the odd-multiple tables stay tiny.  Exact field arithmetic makes the
    result bit-identical to multiplying independent powers.
    """
    bases: list[tuple] = []
    nafs: list[list[int]] = []
    for base, exponent in items:
        exponent %= CURVE_ORDER
        if exponent:
            bases.append(base._flat12())
            nafs.append(_wnaf(exponent, 4))
    if not nafs:
        return Fp12.one()
    kernel = active()
    chain = _gt_multi_pow_ref if kernel is None else kernel.gt_multi_pow
    return Fp12._from_flat12(chain(bases, nafs))


def _gt_multi_pow_ref(bases: list[tuple], nafs: list[list[int]]) -> tuple:
    tables: list[list[tuple]] = []
    for flat in bases:
        # Odd multiples base^1, base^3, base^5, base^7 for width-4 NAF.
        squared = _f12sqr_cyclo(flat)
        row = [flat]
        for _ in range(3):
            row.append(_f12mul(row[-1], squared))
        tables.append(row)
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
    return result


class GTFixedBase:
    """Fixed-base GT exponentiation over a Lim–Lee comb (Lim and Lee, "More
    Flexible Exponentiation with Precomputation", CRYPTO '94).

    The exponent's 256 bits are ``TEETH`` rows of ``COLUMNS`` bits; entry
    ``u - 1`` of the table is the product of ``base^(2^(COLUMNS * t))``
    over the bits ``t`` of ``u``, for u = 1..255.  Building it costs
    ``(TEETH - 1) * COLUMNS`` = 224 cyclotomic squarings and 247
    products; :meth:`pow` walks the columns from the top, one squaring and
    at most one product each (at most 31 and 32).  Valid only for unitary
    bases (pairing outputs).  The table has one representation, fixed when
    it is built: the native kernel's Montgomery buffer when the kernel is in
    use, else a flat list of 255 flat 12-int tuples, so :meth:`pow` never
    allocates tower objects mid-chain.
    """

    def __init__(self, base: Fp12):
        self.base = base
        self._kernel = active()
        build = _gt_fixed_table_ref if self._kernel is None else self._kernel.gt_fixed_table
        self._table = build(base._flat12(), TEETH, COLUMNS)

    def pow(self, exponent: int) -> Fp12:
        exponent %= CURVE_ORDER
        if exponent == 0:
            return Fp12.one()
        if self._kernel is None:
            flat = _gt_fixed_pow_ref(self._table, TEETH, COLUMNS, exponent)
        else:
            flat = self._kernel.gt_fixed_pow(self._table, TEETH, COLUMNS, exponent)
        return Fp12._from_flat12(flat)


def _gt_fixed_table_ref(flat: tuple, teeth: int, columns: int) -> list[tuple]:
    table: list[tuple] = [flat]
    tooth = flat
    for t in range(1, teeth):
        for _ in range(columns):
            tooth = _f12sqr_cyclo(tooth)
        # Entries 2^t .. 2^(t+1) - 1: the new tooth alone, then times each
        # entry below it.
        table.append(tooth)
        table.extend(_f12mul(entry, tooth) for entry in table[: (1 << t) - 1])
    return table


def _gt_fixed_pow_ref(table: list[tuple], teeth: int, columns: int, exponent: int) -> tuple:
    """Columns high to low, bit ``t * columns + c`` of ``exponent`` giving
    bit ``t`` of column ``c``'s entry index; 0 < ``exponent`` <
    2^(teeth * columns)."""
    rows = [(exponent >> (t * columns)) & ((1 << columns) - 1) for t in range(teeth)]
    result = None
    for c in range(columns - 1, -1, -1):
        if result is not None:
            result = _f12sqr_cyclo(result)
        u = 0
        for t, row in enumerate(rows):
            u |= ((row >> c) & 1) << t
        if u:
            entry = table[u - 1]
            result = entry if result is None else _f12mul(result, entry)
    return result
