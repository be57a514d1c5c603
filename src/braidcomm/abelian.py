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
  eaten first, from the shortest row that holds a +-1: each row length
  keeps a heap of row ids, a changed row is pushed at its new length, and
  an entry whose row has gone or changed length since is skipped when
  popped.  Whatever dense core remains is finished by the dense engine.

:func:`perfectness_window_check` asks one tracked reduction which interior
generators of a truncated presentation are forced trivial.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush

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

    Unit pivots: the shortest live row that holds a +-1, ties to the lower
    row index, pivots on its unit of least column support, ties to the
    lower column.  ``_queues`` keeps the rule: it maps a row length to a
    heap of the ids of rows queued at that length, and ``_cursor`` is the
    shortest length it holds.  A row operation pushes the changed row at
    its new length, whether it shrank or grew; a popped id whose row is
    gone or now has another length is a stale entry and is skipped, and an
    emptied length is dropped, moving the cursor to the next one.  A row
    without a unit leaves the queue when popped, until a change pushes it
    again.  Clearing the pivot column by row operations leaves the pivot
    row alone in it, so the column operations that clear the pivot row
    only drop it from its columns' supports (and update ``v``).

    The input rows are copied, never changed.  Without ``track_v`` a
    column index need not be below ``ncols``.
    """

    def __init__(self, rows: list[dict[int, int]], ncols: int, track_v: bool = True):
        self.ncols = ncols
        live: dict[int, dict[int, int]] = {}
        col_support: dict[int, set[int]] = {}
        queues: dict[int, list[int]] = {}
        for i, row in enumerate(rows):
            if 0 in row.values():
                row = {j: val for j, val in row.items() if val}
            else:
                row = dict(row)
            if row:
                live[i] = row
                for j in row:
                    support = col_support.get(j)
                    if support is None:
                        col_support[j] = {i}
                    else:
                        support.add(i)
                # ids arrive in order, so each list is already a heap
                queue = queues.get(len(row))
                if queue is None:
                    queues[len(row)] = [i]
                else:
                    queue.append(i)
        self.rows, self.col_support, self._queues = live, col_support, queues
        self._cursor = min(queues, default=0)
        self.track_v = track_v
        self.v = IntegerMatrix.identity(ncols) if track_v else None
        self.pivots: dict[int, int] = {}
        self.done = False

    def _pick_unit_pivot(self):
        """The next pivot ``(row, col)`` by the unit rule, or None."""
        rows, queues = self.rows, self._queues
        while queues:
            length = self._cursor
            queue = queues[length]
            i = heappop(queue)
            if not queue:
                del queues[length]
                if queues:
                    self._cursor = min(queues)
            row = rows.get(i)
            if row is None or len(row) != length:  # a stale entry
                continue
            units = [j for j, val in row.items() if val == 1 or val == -1]
            if len(units) == 1:
                return i, units[0]
            if units:
                col_support = self.col_support
                return i, min(units, key=lambda j: (len(col_support[j]), j))
        return None

    def run(self) -> "LatticeReduction":
        rows, col_support, queues = self.rows, self.col_support, self._queues
        while True:
            where = self._pick_unit_pivot()
            if where is None:
                break
            i, j = where
            pivot = rows.pop(i)
            val = pivot.pop(j)
            support = col_support.pop(j)
            support.discard(i)
            scaled = [(col, x * val) for col, x in pivot.items()]
            # row_other -= row_other[j] * val * pivot; val in {1,-1}
            for other in support:
                trow = rows[other]
                q = trow.pop(j)
                for col, x in scaled:
                    old = trow.get(col)
                    if old is None:
                        trow[col] = -q * x
                        col_support[col].add(other)
                    else:
                        new = old - q * x
                        if new:
                            trow[col] = new
                        else:
                            del trow[col]
                            col_support[col].discard(other)
                if trow:
                    length = len(trow)
                    queue = queues.get(length)
                    if queue is None:
                        if not queues or length < self._cursor:
                            self._cursor = length
                        queues[length] = [other]
                    else:
                        heappush(queue, other)
                else:
                    del rows[other]
            for col in pivot:
                col_support[col].discard(i)
            if self.track_v and scaled:
                # col_col -= pivot[col] * val * col_j, in v only
                ventries = self.v.entries
                vcol = [(vrow, x) for vrow in ventries if (x := vrow[j])]
                for col, q in scaled:
                    for vrow, y in vcol:
                        vrow[col] -= q * y
            self.pivots[j] = 1
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
    return matrix_rank(rows + [{c: 1} for c in cols], ncols) - base


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
