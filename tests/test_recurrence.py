import pickle
import threading

import pytest

from rank2cluster import laurent
from rank2cluster.combinat import ClusterContext
from rank2cluster.laurent import ONE, InexactDivisionError, LaurentPoly2
from rank2cluster.recurrence import (
    ExpansionStructureError,
    chi_from_expansion,
    cluster_var_recurrence,
    scalar_cluster_value,
)


def test_x3_c2():
    ctx = ClusterContext(2)
    assert cluster_var_recurrence(ctx, 3) == LaurentPoly2(
        {(-1, 0): 1, (-1, 2): 1}
    )


def test_x4_c2_hand_expansion():
    # ((x2^2+1)^2 + x1^2) / (x1^2 x2)
    ctx = ClusterContext(2)
    want = LaurentPoly2({(-2, 3): 1, (-2, 1): 2, (-2, -1): 1, (0, -1): 1})
    assert cluster_var_recurrence(ctx, 4) == want


def test_x3_c3():
    ctx = ClusterContext(3)
    assert cluster_var_recurrence(ctx, 3) == LaurentPoly2(
        {(-1, 0): 1, (-1, 3): 1}
    )


def test_initial_variables():
    ctx = ClusterContext(2)
    assert cluster_var_recurrence(ctx, 1) == LaurentPoly2({(1, 0): 1})
    assert cluster_var_recurrence(ctx, 2) == LaurentPoly2({(0, 1): 1})


def test_preconditions():
    with pytest.raises(ValueError):
        cluster_var_recurrence(ClusterContext(1), 3)
    with pytest.raises(ValueError):
        cluster_var_recurrence(ClusterContext(2), 0)
    with pytest.raises(ValueError):
        chi_from_expansion(ClusterContext(2), 2)


def test_memoized_value_is_stable():
    ctx = ClusterContext(2)
    first = cluster_var_recurrence(ctx, 7)
    assert cluster_var_recurrence(ctx, 7) is first


@pytest.mark.parametrize("c, n", [(1, 3), (2, 0)])
def test_scalar_preconditions(c, n):
    with pytest.raises(ValueError):
        scalar_cluster_value(c, n)


def test_scalar_sequence_c2():
    assert [scalar_cluster_value(2, n) for n in range(1, 7)] == [1, 1, 2, 5, 13, 34]


def test_scalar_matches_poly_evaluation():
    for c, n_top in ((2, 9), (3, 6)):
        ctx = ClusterContext(c)
        for n in range(1, n_top + 1):
            assert cluster_var_recurrence(ctx, n).eval_exact(1, 1) == (
                scalar_cluster_value(c, n)
            )


def test_chi_table_n4_c2():
    table = chi_from_expansion(ClusterContext(2), 4)
    assert table.dim_vector == (2, 1)
    assert dict(table.items()) == {(0, 0): 1, (0, 1): 1, (1, 1): 2, (2, 1): 1}


def test_chi_table_n3_c2():
    table = chi_from_expansion(ClusterContext(2), 3)
    assert table.dim_vector == (1, 0)
    assert dict(table.items()) == {(0, 0): 1, (1, 0): 1}


def test_chi_corner_cells_always_one():
    for c, n_top in ((2, 8), (3, 6), (4, 5)):
        ctx = ClusterContext(c)
        for n in range(3, n_top + 1):
            table = chi_from_expansion(ctx, n)
            an1, an2 = table.dim_vector
            assert table.chi(0, 0) == 1
            assert table.chi(an1, an2) == 1


def test_chi_sum_equals_scalar_value():
    for c, n_top in ((2, 9), (3, 7)):
        ctx = ClusterContext(c)
        for n in range(3, n_top + 1):
            table = chi_from_expansion(ctx, n)
            assert sum(table.entries.values()) == scalar_cluster_value(c, n)


def test_chi_absent_when_pairing_negative():
    for c, n_top in ((2, 8), (3, 6)):
        ctx = ClusterContext(c)
        for n in range(3, n_top + 1):
            an1, an2 = ctx.a(n - 1), ctx.a(n - 2)
            for (e1, e2) in chi_from_expansion(ctx, n).entries:
                assert e2 * an1 - e1 * an2 >= 0


def test_denominator_vector():
    for c, n_top in ((2, 10), (3, 7), (4, 6)):
        ctx = ClusterContext(c)
        for n in range(3, n_top + 1):
            poly = cluster_var_recurrence(ctx, n)
            assert poly.min_exponents() == (-ctx.a(n - 1), -ctx.a(n - 2))


def test_coefficients_observed_nonnegative():
    for c, n_top in ((2, 10), (3, 7), (4, 6)):
        ctx = ClusterContext(c)
        for n in range(1, n_top + 1):
            assert all(v > 0 for _, v in cluster_var_recurrence(ctx, n).items())


def test_inexact_step_names_c_and_k():
    # poison x_3 in a fresh context's memo; step 4 divides by the monomial
    # x_2 and stays exact, step 5 divides by the poisoned x_3
    c = 11
    x3 = cluster_var_recurrence(ClusterContext(c), 3)
    ctx = ClusterContext(c)
    ctx.memo(("x", 3), lambda: x3 + ONE)
    with pytest.raises(InexactDivisionError) as exc:
        cluster_var_recurrence(ctx, 5)
    assert "step k=5 for c=11" in str(exc.value)
    assert exc.value.remainder  # nonzero, kept from the division
    assert exc.value.remainder is exc.value.__cause__.remainder


def test_failed_multiply_check_names_c_and_k(monkeypatch):
    # the multiply's own overflow check fails inside the power of step k=4
    mul = laurent._mul_kronecker

    def overflow_at_x3_squared(p, q):
        if p is q and len(p) == 2:  # x_3 = (x2^2 + 1) / x1 squared
            raise ArithmeticError("Kronecker product overflowed its 3-digit blocks")
        return mul(p, q)

    monkeypatch.setattr(laurent, "_mul_kronecker", overflow_at_x3_squared)
    with pytest.raises(ArithmeticError) as exc:
        cluster_var_recurrence(ClusterContext(2), 5)
    assert not isinstance(exc.value, InexactDivisionError)
    assert "recurrence step k=4 for c=2" in str(exc.value)
    assert "overflowed its 3-digit blocks" in str(exc.value)
    assert type(exc.value.__cause__) is ArithmeticError


@pytest.mark.parametrize(
    "extra, e1, e2, words",
    [
        ({(-1, 1): 1}, None, None, "d2 + a_1 = 1 is not divisible"),
        ({(0, 0): 1}, None, None, "d1 + a_2 = 1 is not divisible"),
        ({(-1, 26): 1}, 2, 0, "cell (2, 0) outside the dimension box (1, 0)"),
        ({(-1, 0): 1}, 0, 0, "corner cells of the table must equal 1"),
        # fails both congruences; the d2 one is reported
        ({(0, 1): 1}, None, None, "d2 + a_1 = 1 is not divisible"),
    ],
)
def test_structure_error_names_c_n_and_cell(extra, e1, e2, words):
    # poison x_3 = (x2^13 + 1) / x1 in a fresh context's memo; its cells are
    # (0, 0) and (1, 0) in the box (a_2, a_1) = (1, 0)
    c = 13
    x3 = cluster_var_recurrence(ClusterContext(c), 3)
    ctx = ClusterContext(c)
    ctx.memo(("x", 3), lambda: x3 + LaurentPoly2(extra))
    with pytest.raises(ExpansionStructureError) as exc:
        chi_from_expansion(ctx, 3)
    err = exc.value
    assert words in str(err)
    assert (err.c, err.n, err.e1, err.e2) == (c, 3, e1, e2)
    back = pickle.loads(pickle.dumps(err))  # crosses verify --jobs workers
    assert (str(back), back.c, back.n, back.e1, back.e2) == (
        str(err), c, 3, e1, e2,
    )


def test_memo_build_holds_no_lock():
    # while one thread sits inside a memo build of a c=2 context, another
    # key of that context and a recurrence at another c must both finish
    ctx = ClusterContext(2)
    entered, release = threading.Event(), threading.Event()
    held = []

    def blocked_build():
        entered.set()
        release.wait(timeout=60)
        return "built"

    def other_work():
        held.append(cluster_var_recurrence(ClusterContext(3), 7))
        held.append(cluster_var_recurrence(ctx, 6))

    blocker = threading.Thread(target=lambda: held.append(ctx.memo("blocked", blocked_build)))
    worker = threading.Thread(target=other_work)
    try:
        blocker.start()
        assert entered.wait(timeout=60)
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive()
    finally:
        release.set()
    blocker.join(timeout=60)
    assert not blocker.is_alive()
    assert held[0] == cluster_var_recurrence(ClusterContext(3), 7)
    assert held[1] == cluster_var_recurrence(ClusterContext(2), 6)
    assert held[2] == "built" and ctx.memo("blocked", lambda: "other") == "built"
