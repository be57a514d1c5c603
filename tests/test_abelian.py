import copy
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from braidcomm import abelian, audit, replays
from braidcomm.abelian import (
    IntegerMatrix,
    LatticeReduction,
    abelian_invariants,
    perfectness_window_check,
    relation_matrix,
    smith_normal_form,
    subgroup_rank,
)
from braidcomm.catalog import catalog
from braidcomm.derived import raw_derived, simplified_derived
from braidcomm.tietze import TruncatedPresentation
from oracles import (
    dense,
    determinant,
    invariant_factors_by_minors,
    matmul,
    unit_pivot_by_rescan,
    zero_matrix,
)


def _random_matrix(rng, max_dim=6, span=9):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return IntegerMatrix([[rng.randint(-span, span) for _ in range(cols)]
                          for _ in range(rows)])


def test_snf_identity_and_zero():
    res = smith_normal_form(IntegerMatrix.identity(2))
    assert res.invariant_factors == [1, 1] and res.free_rank == 0
    res = smith_normal_form(zero_matrix(3, 4))
    assert res.invariant_factors == [] and res.free_rank == 4


def test_snf_diagonal_example():
    m = IntegerMatrix([[2, 0], [0, 3]])
    # minor-gcd oracle: 1x1 gcd = 1, 2x2 det = 6 -> factors (1, 6)
    assert invariant_factors_by_minors(m.entries) == [1, 6]
    res = smith_normal_form(m)
    assert res.invariant_factors == [1, 6]
    assert matmul(matmul(res.u, m), res.v) == res.d


def test_snf_transform_certificates_on_random_matrices():
    rng = random.Random(20240901)
    for _ in range(150):
        m = _random_matrix(rng)
        res = smith_normal_form(m)
        assert matmul(matmul(res.u, m), res.v) == res.d
        assert abs(determinant(res.u)) == 1
        assert abs(determinant(res.v)) == 1
        f = res.invariant_factors
        assert all(x > 0 for x in f)
        assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))


def test_snf_agrees_with_minor_gcd_oracle():
    rng = random.Random(7)
    for _ in range(60):
        m = _random_matrix(rng, max_dim=4, span=6)
        assert smith_normal_form(m).invariant_factors == \
            invariant_factors_by_minors(m.entries)


def test_sparse_reduction_agrees_with_dense():
    rng = random.Random(99)
    for _ in range(80):
        m = _random_matrix(rng)
        rows = [{j: v for j, v in enumerate(row) if v} for row in m.entries]
        red = LatticeReduction(rows, m.cols).run()
        assert red.invariant_factors() == smith_normal_form(m).invariant_factors


# sparse entries, about 30% nonzero, two thirds of those +-1
SPARSE_ENTRIES = (0,) * 19 + (1, -1, 1, -1, 2, -2, 3, -3)


@st.composite
def sparse_matrices(draw, max_dim=10):
    rows = draw(st.integers(1, max_dim))
    cols = draw(st.integers(1, max_dim))
    cells = st.lists(st.sampled_from(SPARSE_ENTRIES), min_size=cols, max_size=cols)
    return IntegerMatrix(draw(st.lists(cells, min_size=rows, max_size=rows)))


def _sparse_rows(m):
    return [{j: v for j, v in enumerate(row) if v} for row in m.entries]


class RescanCheckedReduction(LatticeReduction):
    """Asserts at every step that the per-length queues of row ids pick the
    pivot a full rescan of the live matrix picks."""

    def _pick_unit_pivot(self):
        where = super()._pick_unit_pivot()
        assert where == unit_pivot_by_rescan(self.rows, self.col_support)
        return where


@given(sparse_matrices(), st.booleans())
# row 0 holds no unit and leaves the queue; clearing column 0 with row 1
# leaves it {1: 1}, so it must be queued again
@example(IntegerMatrix([[2, 3], [1, 1]]), True)
# row 1 grows from 4 to 5 entries by fill before its turn, so its length-4
# entry is stale
@example(IntegerMatrix([[1, 2, 2, 0, 0, 0], [1, 0, 0, 1, 2, 2]]), False)
@example(IntegerMatrix([[1, 2, 2, 0, 0, 0], [1, 0, 0, 1, 2, 2]]), True)
# row 1 shrinks to length 1, below the cursor, and its length-3 entry is
# popped after the row is gone
@example(IntegerMatrix([[1, 1, 0], [1, 1, 1]]), False)
@example(IntegerMatrix([[1, 1, 0], [1, 1, 1]]), True)
# as the first pair, with a row 2 of length 4 that must win over row 1's
# stale length-4 entry
@example(IntegerMatrix([[1, 2, 2, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 1, 2, 2, 0, 0, 0, 0],
                        [0, 0, 0, 0, 0, 0, 1, 1, 1, 1]]), False)
# row 0 leaves the queue without a unit and the queue empties; pivoting on
# row 1 pushes row 0 again at length 5, above the last cursor
@example(IntegerMatrix([[2, 3, 3, 0, 0, 0], [1, 0, 0, 2, 2, 2]]), False)
@settings(max_examples=150, deadline=None)
def test_unit_pivots_follow_the_rescan_rule(m, track_v):
    RescanCheckedReduction(_sparse_rows(m), m.cols, track_v=track_v).run()


@given(sparse_matrices(), st.booleans())
@settings(max_examples=50, deadline=None)
def test_a_reduction_leaves_its_input_rows_unchanged(m, track_v):
    with_zeros = [dict(enumerate(row)) for row in m.entries]
    for rows in (_sparse_rows(m), with_zeros):
        before = copy.deepcopy(rows)
        red = LatticeReduction(rows, m.cols, track_v=track_v).run()
        assert rows == before
        assert red.invariant_factors() == smith_normal_form(m).invariant_factors


@pytest.mark.parametrize("track_v", [False, True])
def test_empty_and_zero_rows_have_rank_zero(track_v):
    for rows in ([], [{}], [{0: 0}, {}, {1: 0, 2: 0}]):
        red = LatticeReduction(rows, 3, track_v=track_v).run()
        assert red.rank() == 0 and red.invariant_factors() == []
        if track_v:
            assert red.contains({}) and not red.contains({1: 1})


def test_an_audit_checkpoint_leaves_the_auditors_rows_unchanged():
    # the auditor hands its live shadow rows to every checkpoint
    auditor = audit.AbelianStepAuditor(checkpoint_every=1)
    TruncatedPresentation.from_schema(simplified_derived("GVB", 4), 4, callback=auditor)
    before = copy.deepcopy(auditor.rows)
    free_rank, _ = auditor._invariants()
    assert auditor.rows == before
    assert free_rank < len(auditor.gens)


def _audit_matrices(monkeypatch, name="simplify-gvb-n4"):
    """Every matrix the audit of the named script abelianizes at window 4,
    starting with the start presentation's."""
    matrices = []

    def record(rows, ncols):
        matrices.append((rows, ncols))
        return (0, [])

    monkeypatch.setattr(audit, "abelian_invariants_of_matrix", record)
    audit.audit_script(replays.SCRIPTS[name], name, 4, checkpoint_every=150)
    monkeypatch.undo()
    return matrices


def test_unit_pivots_follow_the_rescan_rule_on_real_matrices(monkeypatch):
    # the fingen-sg-n6 audit's matrices have full column rank
    for rows, ncols in _audit_matrices(monkeypatch, "fingen-sg-n6"):
        assert RescanCheckedReduction(rows, ncols, track_v=False).run().rank() == ncols
    matrices = _audit_matrices(monkeypatch)
    p = TruncatedPresentation.from_schema(simplified_derived("GVB", 5), 4)
    mat = relation_matrix(p)
    matrices.append((mat.rows, len(mat.gens)))
    for rows, ncols in matrices:
        RescanCheckedReduction(rows, ncols, track_v=False).run()
    RescanCheckedReduction(mat.rows, len(mat.gens)).run()


def test_unit_pivots_leave_no_dense_core_on_real_matrices(monkeypatch):
    """The unit phase alone finishes the simplify-gvb-n4 audit's matrices,
    the raw GVB'_6 truncation at window 6 (8970 x 2150) and the tracked
    GVB'_6 at window 8 with a membership test per interior generator."""
    matrices = _audit_matrices(monkeypatch)
    raw = relation_matrix(TruncatedPresentation.from_schema(raw_derived("GVB", 6), 6))
    matrices.append((raw.rows, len(raw.gens)))

    def refuse(a):
        raise AssertionError(f"a {a.rows} x {a.cols} dense core is left")

    monkeypatch.setattr(abelian, "smith_normal_form", refuse)
    for rows, ncols in matrices:
        LatticeReduction(rows, ncols, track_v=False).run()
    report = perfectness_window_check("GVB", 6, 8)
    assert report.perfect_on_interior and len(report.forced_trivial) == 549


@given(sparse_matrices(), st.booleans(), st.data())
@settings(max_examples=150, deadline=None)
def test_sparse_reduction_agrees_with_dense_on_sparse_matrices(m, track_v, data):
    red = LatticeReduction(_sparse_rows(m), m.cols, track_v=track_v).run()
    dense = smith_normal_form(m)
    assert red.invariant_factors() == dense.invariant_factors
    if m.rows <= 4 and m.cols <= 4:
        assert dense.invariant_factors == invariant_factors_by_minors(m.entries)
    if not track_v:
        return
    coeffs = data.draw(st.lists(st.integers(-3, 3), min_size=m.rows, max_size=m.rows))
    combo = {j: sum(c * row[j] for c, row in zip(coeffs, m.entries)) for j in range(m.cols)}
    assert red.contains(combo)
    # with U A V = D, the unit vector e_j lies in the row space of A iff
    # e_j V, row j of V, lies in the row space of D
    diag = [dense.d.entries[t][t] if t < m.rows else 0 for t in range(m.cols)]
    for j in range(m.cols):
        in_dense = all(y % d == 0 if d else y == 0 for y, d in zip(dense.v.entries[j], diag))
        assert red.contains({j: 1}) == in_dense


def test_sparse_membership():
    rows = [{0: 2}, {1: 1, 2: 1}]
    red = LatticeReduction(rows, 3).run()
    assert red.contains({0: 2})
    assert red.contains({0: 4, 1: 3, 2: 3})
    assert not red.contains({0: 1})
    assert not red.contains({1: 1})


def test_subgroup_rank():
    # Z^3 / <e0 - e1> : images of e0, e1 coincide
    rows = [{0: 1, 1: -1}]
    assert subgroup_rank(rows, 3, [0, 1]) == 1
    assert subgroup_rank(rows, 3, [0, 2]) == 2
    assert subgroup_rank([], 3, [0, 1, 2]) == 3


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_snf_certificates_hold_on_seeded_matrices(seed):
    rng = random.Random(seed)
    m = _random_matrix(rng, max_dim=5)
    res = smith_normal_form(m)
    assert matmul(matmul(res.u, m), res.v) == res.d
    f = res.invariant_factors
    assert all(f[i + 1] % f[i] == 0 for i in range(len(f) - 1))


def test_relation_matrix_rows():
    p = TruncatedPresentation.from_schema(simplified_derived("GVB", 5), 2)
    mat = relation_matrix(p)
    rows_by_origin = {p.origins[rid]: mat.rows[pos]
                      for pos, rid in enumerate(sorted(p.relators))}
    # a one-letter relator contributes a single +1
    triv = rows_by_origin[("triv_a", (("m", 0),))]
    assert list(triv.values()) == [1]
    assert mat.gens[next(iter(triv))] == ("a", (0, 0, 1))
    # the six-letter crossing relation pairs +1/-1 across six columns
    braid = rows_by_origin[("braid_ss_1", (("k", 0), ("m", 0)))]
    named = {mat.gens[j]: v for j, v in braid.items()}
    assert named == {("a", (0, 0, 1)): 1, ("a", (1, 0, 2)): 1, ("a", (2, 0, 1)): 1,
                     ("a", (2, 0, 2)): -1, ("a", (1, 0, 1)): -1, ("a", (0, 0, 2)): -1}
    # commutation relators abelianize to zero rows
    comm = rows_by_origin[("comm_ss_jj", (("i", 3), ("j", 5)))] if \
        ("comm_ss_jj", (("i", 3), ("j", 5))) in rows_by_origin else None
    if comm is not None:
        assert comm == {}


def test_commutator_row_is_zero():
    p = TruncatedPresentation.from_schema(simplified_derived("GVB", 6), 0)
    mat = relation_matrix(p)
    for pos, rid in enumerate(sorted(p.relators)):
        if p.origins[rid][0] == "comm_ss_jj":
            assert mat.rows[pos] == {}


def test_ambient_abelianization_is_rank_two():
    for fam in ("GVB", "SG"):
        for n in (3, 4, 5, 6):
            p = TruncatedPresentation.from_schema(catalog(fam, n), 0)
            assert abelian_invariants(p) == (2, [])


def test_perfectness_window_verdicts():
    assert perfectness_window_check("GVB", 5, 4).perfect_on_interior
    assert not perfectness_window_check("SG", 3, 4).perfect_on_interior
    with pytest.raises(ValueError):
        perfectness_window_check("GVB", 5, 3)


def test_forced_trivial_is_monotone_in_the_window():
    reports = {M: perfectness_window_check("SG", 4, M) for M in (4, 5)}
    # once a generator is forced trivial it stays forced in larger windows
    assert reports[4].forced_trivial <= reports[5].forced_trivial


def test_truncated_sg3_abelianization_grows_torsion_free():
    ranks = []
    for M in (2, 3, 4):
        p = TruncatedPresentation.from_schema(simplified_derived("SG", 3), M)
        free_rank, torsion = abelian_invariants(p)
        assert torsion == []
        ranks.append(free_rank)
    assert ranks == sorted(set(ranks))


@pytest.mark.parametrize("group,n", [("SG", 3), ("GVB", 3), ("SG", 4)])
@pytest.mark.parametrize("window", [0, 1, 2])
def test_abelian_invariants_agree_with_sympy(group, n, window):
    normalforms = pytest.importorskip(
        "sympy.matrices.normalforms",
        reason="sympy is an optional test-only channel for invariant factors")
    from sympy import ZZ, Matrix

    p = TruncatedPresentation.from_schema(simplified_derived(group, n), window)
    mat = relation_matrix(p)
    factors = [abs(int(d)) for d in
               normalforms.invariant_factors(Matrix(dense(mat).entries), domain=ZZ)]
    nonzero = [d for d in factors if d]
    assert abelian_invariants(p) == (len(mat.gens) - len(nonzero),
                                     sorted(d for d in nonzero if d > 1))
