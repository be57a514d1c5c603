"""Exact integer lattice computations for abelianized presentations.

Everything here runs on arbitrary-precision Python integers; diagonal
reduction can blow entries up even on small lattices, so fixed-width
arithmetic is never acceptable.

Two engines:

* :func:`smith_normal_form` -- dense, returns the diagonal together with
  unimodular transforms ``U`` and ``V`` with ``U A V = D``.  Its pivot is
  the smallest absolute value, ties broken by lowest (row, column).  Used
  on small matrices and wherever a certificate is wanted.
* :class:`LatticeReduction` -- sparse, column transform only.  Row
  operations never change the row space, so tracking ``V`` alone supports
  membership tests ``v in rowspace(A)`` (forced-trivial generators) and
  rank questions on matrices with thousands of rows.  Unit pivots are
  eaten first by the Markowitz rule, least ``(fill, col, row)``; the rule
  is unchanged from a full rescan of the matrix but kept lazily in a heap
  of per-row lower bounds.  Whatever dense core remains is finished by the
  dense engine.

:func:`perfectness_window_check` asks one tracked reduction which interior
generators of a truncated presentation are forced trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush

from .derived import simplified_derived
from .tietze import TruncatedPresentation
from .words import Gen


@dataclass
class IntegerMatrix:
    entries: list[list[int]]

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    @staticmethod
    def identity(n: int) -> "IntegerMatrix":
        return IntegerMatrix([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, IntegerMatrix) and self.entries == other.entries


@dataclass
class SNFResult:
    d: IntegerMatrix
    u: IntegerMatrix
    v: IntegerMatrix
    invariant_factors: list[int]
    free_rank: int


def smith_normal_form(a: IntegerMatrix) -> SNFResult:
    """Diagonalize with unimodular row and column transforms.

    Pivot rule: smallest nonzero absolute value in the live block, ties by
    lowest (row, column).  The output is deterministic and satisfies the
    divisibility chain d1 | d2 | ... with nonnegative diagonal.
    """
    rows, cols = a.rows, a.cols
    d = [row[:] for row in a.entries]
    u = IntegerMatrix.identity(rows).entries
    v = IntegerMatrix.identity(cols).entries

    def swap_rows(i, j):
        if i != j:
            d[i], d[j] = d[j], d[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for row in d:
                row[i], row[j] = row[j], row[i]
            for row in v:
                row[i], row[j] = row[j], row[i]

    def row_op(i, j, q):
        # row_i -= q * row_j
        if q:
            di, dj = d[i], d[j]
            for t in range(cols):
                di[t] -= q * dj[t]
            ui, uj = u[i], u[j]
            for t in range(rows):
                ui[t] -= q * uj[t]

    def col_op(i, j, q):
        # col_i -= q * col_j
        if q:
            for row in d:
                row[i] -= q * row[j]
            for row in v:
                row[i] -= q * row[j]

    def find_pivot(t):
        best = None
        where = None
        for i in range(t, rows):
            row = d[i]
            for j in range(t, cols):
                val = abs(row[j])
                if val and (best is None or val < best):
                    best, where = val, (i, j)
        return where

    t = 0
    while True:
        where = find_pivot(t)
        if where is None:
            break
        swap_rows(t, where[0])
        swap_cols(t, where[1])
        while True:
            dirty = False
            for i in range(t + 1, rows):
                if d[i][t]:
                    row_op(i, t, d[i][t] // d[t][t])
                    dirty = dirty or bool(d[i][t])
            for j in range(t + 1, cols):
                if d[t][j]:
                    col_op(j, t, d[t][j] // d[t][t])
                    dirty = dirty or bool(d[t][j])
            if not dirty and all(d[i][t] == 0 for i in range(t + 1, rows)) \
                    and all(d[t][j] == 0 for j in range(t + 1, cols)):
                break
            where = find_pivot(t)
            swap_rows(t, where[0])
            swap_cols(t, where[1])
        # enforce divisibility of the remaining block by the pivot
        fixed = True
        pivot = d[t][t]
        for i in range(t + 1, rows):
            row = d[i]
            for j in range(t + 1, cols):
                if row[j] % pivot:
                    row_op(t, i, -1)  # fold row i into row t and keep reducing
                    fixed = False
                    break
            if not fixed:
                break
        if fixed:
            if d[t][t] < 0:
                for j in range(cols):
                    d[t][j] = -d[t][j]
                for j in range(rows):
                    u[t][j] = -u[t][j]
            t += 1
            if t == min(rows, cols):
                break
    diag = [d[i][i] for i in range(min(rows, cols))]
    factors = [x for x in diag if x]
    return SNFResult(IntegerMatrix(d), IntegerMatrix(u), IntegerMatrix(v),
                     factors, cols - len(factors))


# ---------------------------------------------------------------------------
# sparse engine


class LatticeReduction:
    """Row-space reduction of an integer matrix, column transform tracked.

    After :meth:`run`, ``pivots`` maps a column index to the (positive)
    diagonal entry sitting in it, and ``v`` is a unimodular ncols x ncols
    matrix such that a vector x lies in the row space of the input iff
    ``x @ v`` is divisible entrywise by the pivot diagonal and vanishes on
    non-pivot columns.

    Unit pivots follow the Markowitz rule: among all entries equal to +-1,
    take the least key ``(fill, col, row)`` with
    ``fill = (|col_support[col]| - 1) * (|row| - 1)``.  The rule is kept
    lazily rather than by rescanning the matrix: a heap holds ``_best[i]``,
    a lower bound on row i's key.  A row whose entries changed gets its
    exact key; when a column's support changes, each row with a unit there
    gets only that entry's key, and only if it lowers the bound.  A popped
    bound is checked by rescanning its row: if it is the true key, it is
    at most every queued bound, hence the pivot a full rescan would pick
    (keys are unique); otherwise the row is requeued at its true key.
    """

    def __init__(self, rows: list[dict[int, int]], ncols: int, track_v: bool = True):
        self.ncols = ncols
        self.rows: dict[int, dict[int, int]] = {
            i: {j: val for j, val in row.items() if val} for i, row in enumerate(rows)
        }
        self.rows = {i: row for i, row in self.rows.items() if row}
        self.col_support: dict[int, set[int]] = {}
        for i, row in self.rows.items():
            for j in row:
                self.col_support.setdefault(j, set()).add(i)
        self.track_v = track_v
        self.v = IntegerMatrix.identity(ncols) if track_v else None
        self.pivots: dict[int, int] = {}
        self.done = False
        # lazy Markowitz queue: a lower bound per live row, plus stale keys
        # that are dropped when popped; rows and columns changed since the
        # last pick are re-queued by the next one, and every row starts so
        self._heap: list[tuple[int, int, int]] = []
        self._best: dict[int, tuple[int, int, int]] = {}
        self._dirty_rows: set[int] = set(self.rows)
        self._dirty_cols: set[int] = set()

    def _row_axpy(self, target: int, source: int, q: int) -> None:
        # row_target -= q * row_source
        trow = self.rows[target]
        for j, val in self.rows[source].items():
            new = trow.get(j, 0) - q * val
            if new:
                if j not in trow:
                    self.col_support.setdefault(j, set()).add(target)
                    self._dirty_cols.add(j)
                trow[j] = new
            elif j in trow:
                del trow[j]
                self.col_support[j].discard(target)
                self._dirty_cols.add(j)
        self._dirty_rows.add(target)
        if not trow:
            del self.rows[target]

    def _col_axpy(self, target: int, source: int, q: int) -> None:
        # col_target -= q * col_source  (matrix and v)
        for i in set(self.col_support.get(source, ())):
            row = self.rows[i]
            val = row.get(source, 0)
            if not val:
                continue
            new = row.get(target, 0) - q * val
            if new:
                if target not in row:
                    self.col_support.setdefault(target, set()).add(i)
                    self._dirty_cols.add(target)
                row[target] = new
            elif target in row:
                del row[target]
                self.col_support[target].discard(i)
                self._dirty_cols.add(target)
            self._dirty_rows.add(i)
        if self.track_v:
            ventries = self.v.entries
            for r in range(self.ncols):
                ventries[r][target] -= q * ventries[r][source]

    def _row_key(self, i: int):
        """The least ``(fill, col, row)`` over the unit entries of live row
        ``i``, or None when it has none."""
        row = self.rows.get(i)
        if row is None:
            return None
        col_support = self.col_support
        rfill = len(row) - 1
        best = None
        for j, val in row.items():
            if val == 1 or val == -1:
                key = ((len(col_support[j]) - 1) * rfill, j, i)
                if best is None or key < best:
                    best = key
        return best

    def _pick_unit_pivot(self):
        rows, heap, best = self.rows, self._heap, self._best
        for i in self._dirty_rows:
            key = self._row_key(i)
            if key is None:
                best.pop(i, None)
            elif best.get(i) != key:
                best[i] = key
                heappush(heap, key)
        self._dirty_rows.clear()
        # a changed column support changes the fill of its unit entries
        for j in self._dirty_cols:
            support = self.col_support.get(j, ())
            for i in support:
                row = rows[i]
                if row[j] == 1 or row[j] == -1:
                    key = ((len(support) - 1) * (len(row) - 1), j, i)
                    if key < best[i]:
                        best[i] = key
                        heappush(heap, key)
        self._dirty_cols.clear()
        if len(heap) > 2 * len(rows) + 64:
            # stale keys pile up: rebuild from the live rows only
            heap[:] = best.values()
            heapify(heap)
        # every live row's bound is queued, so a popped bound that is its
        # row's true key is the least key over the whole matrix
        while heap:
            key = heappop(heap)
            i = key[2]
            if best.get(i) != key:
                continue
            true = self._row_key(i)
            if true is not None and true != key:
                best[i] = true
                heappush(heap, true)
                continue
            del best[i]  # the row has no unit, or it is the pivot and leaves
            if true is not None:
                return i, key[1]
        return None

    def run(self) -> "LatticeReduction":
        while True:
            where = self._pick_unit_pivot()
            if where is None:
                break
            i, j = where
            val = self.rows[i][j]
            for other in sorted(self.col_support.get(j, set()) - {i}):
                q = self.rows[other][j] * val  # val in {1,-1}: exact quotient
                self._row_axpy(other, i, q)
            for col in sorted(set(self.rows[i]) - {j}):
                q = self.rows[i][col] * val
                self._col_axpy(col, j, q)
            self.pivots[j] = 1
            del self.rows[i]
            self.col_support.pop(j, None)
        self._finish_core()
        self.done = True
        return self

    def _finish_core(self) -> None:
        if not self.rows:
            return
        live_rows = sorted(self.rows)
        live_cols = sorted({j for row in self.rows.values() for j in row})
        dense = IntegerMatrix(
            [[self.rows[i].get(j, 0) for j in live_cols] for i in live_rows]
        )
        core = smith_normal_form(dense)
        for pos in range(min(core.d.rows, core.d.cols)):
            val = core.d.entries[pos][pos]
            if val:
                self.pivots[live_cols[pos]] = val
        if self.track_v:
            # fold the core column transform into the global one
            old_cols = [[self.v.entries[r][j] for j in live_cols] for r in range(self.ncols)]
            for r in range(self.ncols):
                vrow = self.v.entries[r]
                orow = old_cols[r]
                for t, j in enumerate(live_cols):
                    acc = 0
                    for s in range(len(live_cols)):
                        o = orow[s]
                        if o:
                            acc += o * core.v.entries[s][t]
                    vrow[j] = acc
        self.rows.clear()

    # -- queries ------------------------------------------------------------

    def rank(self) -> int:
        return len(self.pivots)

    def invariant_factors(self) -> list[int]:
        return sorted(self.pivots.values())

    def contains(self, vec: dict[int, int]) -> bool:
        """Is the vector in the integer row space of the input matrix?"""
        assert self.track_v and self.done
        ventries = self.v.entries
        image = [0] * self.ncols
        for r, val in vec.items():
            if val:
                vrow = ventries[r]
                for j in range(self.ncols):
                    image[j] += val * vrow[j]
        for j, y in enumerate(image):
            d = self.pivots.get(j)
            if d is None:
                if y:
                    return False
            elif y % d:
                return False
        return True


# ---------------------------------------------------------------------------
# presentations -> matrices


@dataclass
class RelationMatrix:
    gens: list[Gen]
    index: dict[Gen, int]
    rows: list[dict[int, int]]


def relation_matrix(p: TruncatedPresentation) -> RelationMatrix:
    """One row per relator, one column per generator, entries are exponent
    sums.  Commutator-shaped relators contribute zero rows by construction."""
    gens = sorted(p.gens)
    index = {g: j for j, g in enumerate(gens)}
    relators = p.all_relators()
    rows = [{index[g]: e for g, e in relators[rid].exponent_vector().items()}
            for rid in sorted(relators)]
    return RelationMatrix(gens, index, rows)


def abelian_invariants_of_matrix(rows: list[dict[int, int]], ncols: int) -> tuple[int, list[int]]:
    red = LatticeReduction(rows, ncols, track_v=False).run()
    torsion = [d for d in red.invariant_factors() if d > 1]
    return ncols - red.rank(), torsion


def abelian_invariants(p: TruncatedPresentation) -> tuple[int, list[int]]:
    """(free rank, torsion coefficients) of the abelianized presentation."""
    mat = relation_matrix(p)
    return abelian_invariants_of_matrix(mat.rows, len(mat.gens))


def matrix_rank(rows: list[dict[int, int]], ncols: int) -> int:
    return LatticeReduction(rows, ncols, track_v=False).run().rank()


def subgroup_rank(rows: list[dict[int, int]], ncols: int, cols: list[int]) -> int:
    """Rank of the subgroup the given generator columns span in the
    quotient Z^ncols / rowspace: rank([E; R]) - rank(R) with E unit rows."""
    base = matrix_rank(rows, ncols)
    stacked = [dict(row) for row in rows] + [{c: 1} for c in cols]
    return matrix_rank(stacked, ncols) - base


@dataclass
class PerfectnessReport:
    group: str
    n: int
    window: int
    perfect_on_interior: bool
    interior_size: int
    forced_trivial: set[Gen]
    not_forced: set[Gen]

    def __str__(self) -> str:
        verdict = "perfect-on-interior" if self.perfect_on_interior else "NOT perfect-on-interior"
        extra = "" if self.perfect_on_interior else \
            f" ({len(self.not_forced)}/{self.interior_size} interior generators not forced trivial)"
        return f"{self.group}' n={self.n} window={self.window}: {verdict}{extra}"


def perfectness_window_check(group: str, n: int, window: int) -> PerfectnessReport:
    """Abelianize the truncated two-parameter presentation and ask which
    interior generators are forced trivial.  A clean window certifies
    perfectness on the interior; a dirty one is reported as "not forced
    trivial at this window", never as a standalone disproof."""
    if window < 4:
        raise ValueError("window must be >= 4")
    p = TruncatedPresentation.from_schema(simplified_derived(group, n), window)
    mat = relation_matrix(p)
    red = LatticeReduction(mat.rows, len(mat.gens)).run()
    interior = p.interior()
    forced = {g for g in interior if red.contains({mat.index[g]: 1})}
    not_forced = interior - forced
    return PerfectnessReport(group, n, window, not not_forced,
                             len(interior), forced, not_forced)
