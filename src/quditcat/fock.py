"""Totally symmetric Fock basis for N bosonic quDits.

The Hilbert space of N indistinguishable D-level systems is spanned by
occupation vectors n = (n_0, ..., n_{D-1}) with n_0 + ... + n_{D-1} = N,
i.e. the compositions of N into D non-negative parts.  Its dimension is
binom(N+D-1, D-1).  States are enumerated in descending lexicographic
order so that the level-0 condensate (N, 0, ..., 0) sits at index 0.

All factorial-type weights are handled through log-factorials so that
particle numbers of several hundred stay inside double-precision range; an
exact big-integer multinomial is kept around as a test oracle.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property, lru_cache

import numpy as np

DEFAULT_MAX_STATES = 10_000_000

# ln k! = math.lgamma(k + 1) for k < len(_log_factorials); it is grown by
# replacing it whole, so concurrent readers always see a complete table
_log_factorials = np.zeros(1)


class CapacityError(Exception):
    """Requested object exceeds the configured basis-size cap."""


def basis_size(D: int, N: int) -> int:
    """Number of compositions of N into D parts, binom(N+D-1, D-1)."""
    return math.comb(N + D - 1, D - 1)


def _compositions(total: int, parts: int) -> np.ndarray:
    """All compositions of `total` into `parts` parts, descending lex order.

    Stars and bars: a composition is a choice of parts - 1 bar positions
    among total + parts - 1 slots, and n_i is the number of stars between
    bars i - 1 and i.  `itertools.combinations` lists the bar positions in
    ascending lex order, which is ascending lex order of the compositions,
    so the rows are read back reversed.
    """
    slots = total + parts - 1
    bars = np.fromiter(
        itertools.combinations(range(slots), parts - 1),
        dtype=np.dtype((np.int64, (parts - 1,))),
        count=math.comb(slots, parts - 1),
    )
    edges = np.empty((bars.shape[0], parts + 1), dtype=np.int64)
    edges[:, 0] = -1
    edges[:, 1:-1] = bars[::-1]
    edges[:, -1] = slots
    return np.diff(edges, axis=1) - 1


class FockBasis:
    """Ordered symmetric Fock basis for N particles in D levels.

    Attributes:
        D: number of single-particle levels (>= 2)
        N: total particle number (>= 0)
        states: (size, D) int array of occupation vectors, descending lex
        size: binom(N+D-1, D-1)

    The basis is immutable after construction and safe to share between
    any number of concurrent readers.
    """

    def __init__(self, D: int, N: int, max_states: int = DEFAULT_MAX_STATES):
        if D < 2:
            raise ValueError(f"need at least two levels, got D={D}")
        if N < 0:
            raise ValueError(f"particle number must be non-negative, got N={N}")
        size = basis_size(D, N)
        if size > max_states:
            raise CapacityError(
                f"basis size {size} for (D={D}, N={N}) exceeds cap {max_states}"
            )
        self.D = D
        self.N = N
        self.size = size
        self.states = _compositions(N, D)
        self.states.setflags(write=False)

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        return f"FockBasis(D={self.D}, N={self.N}, size={self.size})"

    @cached_property
    def _rank_table(self) -> np.ndarray:
        # entry [s, j - 1] = binom(s + j - 1, j): the compositions that
        # precede a state whose last j levels hold s particles, summed over
        # the larger heads the enumeration puts first (hockey-stick identity)
        table = [
            [math.comb(s + j - 1, j) for j in range(1, self.D)]
            for s in range(self.N + 1)
        ]
        out = np.array(table, dtype=np.int64)
        out.setflags(write=False)
        return out

    def rank(self, n) -> int | np.ndarray:
        """Index of occupation vector `n` in the enumeration order.

        Accepts one vector (D,), returning an int, or a batch (m, D),
        returning an int array; an invalid row raises the same ValueError
        as the scalar call on that row.
        """
        n = np.asarray(n, dtype=np.int64)
        single = n.ndim == 1
        rows = n[None, :] if single else n
        if rows.ndim != 2 or rows.shape[1] != self.D:
            raise ValueError(f"occupation vector must have {self.D} entries")
        bad = np.nonzero(np.any(rows < 0, axis=1))[0]
        if bad.size:
            raise ValueError(f"negative occupation in {rows[bad[0]].tolist()}")
        totals = rows.sum(axis=1)
        bad = np.nonzero(totals != self.N)[0]
        if bad.size:
            row = rows[bad[0]]
            raise ValueError(
                f"occupation {row.tolist()} sums to {int(totals[bad[0]])}, "
                f"expected {self.N}"
            )
        # particles in levels p..D-1 for p = 1..D-1, i.e. in the last D - p
        tails = np.cumsum(rows[:, :0:-1], axis=1)[:, ::-1]
        idx = self._rank_table[tails, np.arange(self.D - 2, -1, -1)].sum(axis=1)
        return int(idx[0]) if single else idx

    def unrank(self, i: int) -> np.ndarray:
        """Occupation vector stored at index `i`."""
        return self.states[i]

    @cached_property
    def log_multinomials(self) -> np.ndarray:
        """ln(N!/prod n_i!) for every basis state, shape (size,)."""
        out = log_multinomial(self.states)
        out.setflags(write=False)
        return out

    @cached_property
    def sector_codes(self) -> np.ndarray:
        """Parity sector of each state as its label's index in
        `parity.all_parity_labels(D)`: n_1..n_{D-1} mod 2 in binary, n_1 highest."""
        weights = 1 << np.arange(self.D - 2, -1, -1)
        codes = (self.states[:, 1:] % 2) @ weights
        codes.setflags(write=False)
        return codes


@lru_cache(maxsize=64)
def shared_basis(D: int, N: int) -> FockBasis:
    """Process-wide cache of bases; safe because FockBasis is immutable."""
    return FockBasis(D, N)


def log_factorial(k) -> np.ndarray:
    """ln k! for non-negative integers k; the table at least doubles on demand."""
    global _log_factorials
    k, table = np.asarray(k, dtype=np.int64), _log_factorials
    if k.size and k.max() >= len(table):
        grown = range(len(table), max(int(k.max()) + 1, 2 * len(table)))
        table = _log_factorials = np.append(table, [math.lgamma(i + 1) for i in grown])
    return table[k]


def log_multinomial(n) -> np.ndarray | float:
    """ln of the multinomial weight N!/prod_i n_i! of an occupation vector.

    Accepts a single vector or a 2-d array of vectors (one per row).
    Computed from log-factorials, accurate to better than 1e-12 relative
    for particle numbers up to several hundred.
    """
    n = np.asarray(n, dtype=np.int64)
    if np.any(n < 0):
        raise ValueError("occupation numbers must be non-negative")
    out = log_factorial(n.sum(axis=-1)) - log_factorial(n).sum(axis=-1)
    return out if out.ndim else float(out)


def exact_multinomial(n) -> int:
    """Big-integer N!/prod n_i!, the exact oracle for log_multinomial."""
    n = [int(v) for v in n]
    out = math.factorial(sum(n))
    for v in n:
        out //= math.factorial(v)
    return out
