import math
import threading

import pytest
from hypothesis import given, strategies as st

from rank2cluster.combinat import ClusterContext, euler_form, mod_binom


class TestModBinom:
    def test_examples(self):
        assert mod_binom(5, 2) == 10
        assert mod_binom(2, 5) == 0
        assert mod_binom(-2, -3) == -2
        assert mod_binom(3, 3) == 1

    def test_matches_factorial_binomial(self):
        for a in range(31):
            for b in range(a + 1):
                want = math.factorial(a) // (math.factorial(a - b) * math.factorial(b))
                assert mod_binom(a, b) == want

    def test_negative_bottom_with_nonnegative_top(self):
        for a in range(0, 20):
            for b in range(-10, 0):
                assert mod_binom(a, b) == 0

    def test_top_below_bottom_and_diagonal(self):
        for a in range(-10, 10):
            for b in range(a + 1, a + 6):
                assert mod_binom(a, b) == 0
            assert mod_binom(a, a) == 1

    def test_negative_top_product_form(self):
        # direct product: [a; b] = prod_{i<k} (a-i) / k!  with k = a-b
        for a in range(-8, 0):
            for k in range(1, 8):
                num = 1
                for i in range(k):
                    num *= a - i
                assert mod_binom(a, a - k) == num // math.factorial(k)

    @given(st.integers(1, 60), st.integers(-30, 59))
    def test_pascal(self, a, b):
        if b >= a:
            return
        assert mod_binom(a, b) == mod_binom(a - 1, b - 1) + mod_binom(a - 1, b)


class TestASeq:
    def test_examples(self):
        assert ClusterContext(2).a(6) == 5
        assert ClusterContext(3).a(5) == 21
        assert ClusterContext(3).a(0) == -1

    def test_initial_values(self):
        for c in (1, 2, 3, 4, 5):
            ctx = ClusterContext(c)
            assert ctx.a(0) == -1
            assert ctx.a(1) == 0
            assert ctx.a(2) == 1

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            ClusterContext(2).a(-1)

    def test_invalid_parameter_rejected(self):
        with pytest.raises(ValueError):
            ClusterContext(0)
        with pytest.raises(TypeError):
            ClusterContext(2.0)

    @pytest.mark.parametrize("c", [1, 3])
    def test_repr(self, c):
        assert repr(ClusterContext(c)) == f"ClusterContext(c={c})"

    def test_window_identity(self):
        # a_{n-1}*a_{n-3} - a_{n-2}^2 == -1, down to index 0
        for c in (2, 3, 4, 5):
            ctx = ClusterContext(c)
            for n in range(3, 51):
                assert ctx.a(n - 1) * ctx.a(n - 3) - ctx.a(n - 2) ** 2 == -1

    def test_linear_for_c2(self):
        ctx = ClusterContext(2)
        for n in range(1, 51):
            assert ctx.a(n) == n - 1

    def test_alternating_closed_form_c_ge_3(self):
        for c in (3, 4, 5):
            ctx = ClusterContext(c)
            for n in range(2, 21):
                want = sum(
                    (-1) ** i * math.comb(n - 2 - i, i) * c ** (n - 2 - 2 * i)
                    for i in range((n - 2) // 2 + 1)
                )
                assert ctx.a(n) == want

    def test_concurrent_reads_consistent(self):
        ctx = ClusterContext(3)
        reference = [ClusterContext(3).a(k) for k in range(401)]
        errors = []

        def worker(start):
            try:
                for k in range(start, 401, 7):
                    if ctx.a(k) != reference[k]:
                        errors.append(k)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(7)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors


class TestEulerForm:
    def test_examples(self):
        assert euler_form(ClusterContext(2), (0, 0), (1, 1)) == 0
        assert euler_form(ClusterContext(2), (1, 0), (0, 1)) == -2
        assert euler_form(ClusterContext(3), (1, 1), (1, 1)) == -1

    @given(
        st.integers(1, 5),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    )
    def test_bilinear(self, c, d, f, g):
        ctx = ClusterContext(c)
        ds = (d[0] + g[0], d[1] + g[1])
        assert euler_form(ctx, ds, f) == euler_form(ctx, d, f) + euler_form(ctx, g, f)
        fs = (f[0] + g[0], f[1] + g[1])
        assert euler_form(ctx, d, fs) == euler_form(ctx, d, f) + euler_form(ctx, d, g)
