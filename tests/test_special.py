"""Special functions against mpmath, analytic identities, and quadrature.

The wrappers evaluate through scipy.special, so the reference values come
from mpmath at 30 significant digits.  Tests named "against_scipy" keep
their ids; their oracle is mpmath too.
"""

import math
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special as sc
from scipy.integrate import quad

from kappagen import (
    DomainError,
    beta_fn,
    digamma,
    gamma_fn,
    inc_beta,
    inv_reg_inc_beta,
    log_gamma,
    reg_inc_beta,
    reg_lower_inc_gamma,
    upper_inc_gamma,
)
from kappagen import special

EULER_GAMMA = np.euler_gamma

MP_DIGITS = 30


def _mp(fn, *args, **kwargs):
    """Evaluate an mpmath function at double arguments, rounded to double."""
    with mp.workdps(MP_DIGITS):
        return float(fn(*(mp.mpf(float(v)) for v in args), **kwargs))


def _mp_vec(fn, z):
    return np.array([_mp(fn, zi) for zi in z])


def _mp_inv_reg_inc_beta(u, a, b):
    """Root of I_x(a, b) = u near zero, from the leading term x^a / (a B(a, b))."""
    with mp.workdps(MP_DIGITS):
        a, b, u = mp.mpf(a), mp.mpf(b), mp.mpf(u)
        x0 = (u * a * mp.beta(a, b)) ** (1 / a)
        return float(mp.findroot(lambda x: mp.betainc(a, b, 0, x, regularized=True) - u,
                                 (x0 / 2, x0 * 2), solver="anderson"))


class TestGamma:
    def test_anchors(self):
        assert gamma_fn(1.0) == pytest.approx(1.0, rel=1e-14)
        assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)
        # value needed by the mixture mean: Gamma(1 + 1/0.7)
        assert gamma_fn(2.4285714285714284) == pytest.approx(
            _mp(mp.gamma, 2.4285714285714284), rel=1e-13)

    def test_against_scipy_grid(self):
        rng = np.random.default_rng(20)
        z = rng.uniform(1e-2, 60.0, 300)
        got = np.array([gamma_fn(zi) for zi in z])
        np.testing.assert_allclose(got, _mp_vec(mp.gamma, z), rtol=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(21)
        for z in rng.uniform(0.05, 30.0, 100):
            assert gamma_fn(z + 1.0) == pytest.approx(z * gamma_fn(z), rel=1e-12)

    def test_negative_non_integer(self):
        for z in (-0.5, -1.5, -2.3):
            assert gamma_fn(z) == pytest.approx(_mp(mp.gamma, z), rel=1e-12)

    def test_poles(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(DomainError):
                gamma_fn(z)

    def test_log_gamma_against_scipy(self):
        rng = np.random.default_rng(22)
        z = rng.uniform(1e-3, 500.0, 300)
        got = np.array([log_gamma(zi) for zi in z])
        np.testing.assert_allclose(got, _mp_vec(mp.loggamma, z), rtol=1e-13, atol=1e-13)

    def test_log_gamma_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-2.5)

    def test_log_gamma_float_path_matches_the_array_path(self, monkeypatch):
        z = np.concatenate([np.exp(np.linspace(-700.0, 700.0, 301)), np.linspace(0.01, 40.0, 400),
                            [5e-324, np.finfo(float).tiny, 1.0, 2.0, np.inf]])
        want = log_gamma(z).tolist()
        # Python floats and numpy float64 take the float path, past _asarray
        monkeypatch.setattr(special, "_asarray", None)
        assert [log_gamma(float(v)) for v in z] == want
        assert [log_gamma(v) for v in z] == want
        for bad in (0.0, -0.0, -2.5, -np.inf, np.nan):
            with pytest.raises(DomainError):
                log_gamma(bad)
        monkeypatch.undo()
        for bad in (0.0, -0.0, -2.5, -np.inf, np.nan):
            with pytest.raises(DomainError):
                log_gamma(np.array([bad]))


class TestDigamma:
    def test_euler_mascheroni(self):
        assert digamma(1.0) == pytest.approx(-EULER_GAMMA, abs=1e-13)

    def test_at_two(self):
        assert digamma(2.0) == pytest.approx(1.0 - EULER_GAMMA, abs=1e-13)

    def test_at_half(self):
        assert digamma(0.5) == pytest.approx(-EULER_GAMMA - 2.0 * math.log(2.0), abs=1e-13)

    def test_recurrence(self):
        rng = np.random.default_rng(23)
        for z in rng.uniform(0.05, 50.0, 200):
            assert digamma(z + 1.0) == pytest.approx(digamma(z) + 1.0 / z, abs=1e-12)

    def test_against_scipy(self):
        rng = np.random.default_rng(24)
        z = rng.uniform(1e-3, 200.0, 300)
        got = np.array([digamma(zi) for zi in z])
        np.testing.assert_allclose(got, _mp_vec(mp.digamma, z), rtol=1e-12, atol=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            digamma(0.0)


class TestTrigamma:
    def test_against_mpmath(self):
        rng = np.random.default_rng(26)
        z = np.concatenate([rng.uniform(1e-3, 200.0, 300), [1e-8, 0.5, 1.0, 1e6]])
        want = _mp_vec(lambda t: mp.psi(1, t), z)
        np.testing.assert_allclose(special.trigamma(z), want, rtol=1e-13)
        assert special.trigamma(1.0) == pytest.approx(math.pi ** 2 / 6.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            special.trigamma(np.array([1.0, 0.0]))


class TestRegIncBeta:
    def test_uniform_case(self):
        rng = np.random.default_rng(25)
        x = rng.uniform(0, 1, 50)
        np.testing.assert_allclose(reg_inc_beta(x, 1.0, 1.0), x, rtol=1e-13)

    def test_symmetry_point(self):
        assert reg_inc_beta(0.5, 2.0, 2.0) == pytest.approx(0.5, abs=1e-14)

    def test_polynomial_oracle(self):
        # I_x(2, 3) = x^2 (6 - 8x + 3x^2)
        for x in (0.1, 0.25, 0.5, 0.8, 0.95):
            want = x * x * (6.0 - 8.0 * x + 3.0 * x * x)
            assert reg_inc_beta(x, 2.0, 3.0) == pytest.approx(want, rel=1e-13)

    def test_endpoints_and_monotone(self):
        assert reg_inc_beta(0.0, 3.0, 0.5) == 0.0
        assert reg_inc_beta(1.0, 3.0, 0.5) == 1.0
        x = np.linspace(0, 1, 101)
        y = reg_inc_beta(x, 2.5, 0.7)
        assert np.all(np.diff(y) >= 0)

    def test_reflection_identity(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            a = rng.uniform(0.1, 20.0)
            b = rng.uniform(0.1, 20.0)
            x = rng.uniform(0.0, 1.0)
            assert reg_inc_beta(x, a, b) == pytest.approx(
                1.0 - reg_inc_beta(1.0 - x, b, a), abs=1e-13)

    def test_against_scipy(self):
        rng = np.random.default_rng(27)
        for _ in range(200):
            a = rng.uniform(0.05, 50.0)
            b = rng.uniform(0.05, 50.0)
            x = rng.uniform(0.0, 1.0)
            want = _mp(mp.betainc, a, b, 0.0, x, regularized=True)
            assert reg_inc_beta(x, a, b) == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(1.5, 2.0, 2.0)
        with pytest.raises(DomainError):
            reg_inc_beta(0.5, -1.0, 2.0)

    def test_unregularized(self):
        assert inc_beta(0.3, 2.0, 5.0) == pytest.approx(
            _mp(mp.betainc, 2.0, 5.0, 0.0, 0.3), rel=1e-12)
        assert beta_fn(2.0, 5.0) == pytest.approx(_mp(mp.beta, 2.0, 5.0), rel=1e-13)


class TestInvRegIncBeta:
    def test_boundary_fixed_points(self):
        assert inv_reg_inc_beta(0.0, 2.0, 3.0) == 0.0
        assert inv_reg_inc_beta(1.0, 2.0, 3.0) == 1.0

    def test_uniform_case(self):
        rng = np.random.default_rng(28)
        u = rng.uniform(0, 1, 50)
        np.testing.assert_allclose(inv_reg_inc_beta(u, 1.0, 1.0), u, atol=1e-12)

    def test_inverse_of_polynomial_case(self):
        assert inv_reg_inc_beta(0.26171875, 2.0, 3.0) == pytest.approx(0.25, abs=1e-12)

    def test_roundtrip(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            a = rng.uniform(0.1, 30.0)
            b = rng.uniform(0.1, 30.0)
            u = rng.uniform(0.0, 1.0)
            x = inv_reg_inc_beta(u, a, b)
            assert reg_inc_beta(x, a, b) == pytest.approx(u, abs=1e-10)

    def test_lower_tail_against_mpmath_root(self):
        # the last two lie where scipy's betaincinv alone returns nan
        for u, a, b in ((3e-10, 2.0, 1.2), (1e-12, 0.84, 0.73), (7e-10, 5.0, 30.0),
                        (1e-17, 1.01, 0.9), (1e-190, 2.0, 3.0)):
            want = _mp_inv_reg_inc_beta(u, a, b)
            assert inv_reg_inc_beta(u, a, b) == pytest.approx(want, rel=1e-12)


def _mp_log_root(u, a, b):
    """60-digit root of I_x(a, b) = u, found in ln x from the leading-term root."""
    with mp.workdps(60):
        a, b, u = mp.mpf(a), mp.mpf(b), mp.mpf(u)
        x0 = (u * a * mp.beta(a, b)) ** (1 / a)
        return float(mp.exp(mp.findroot(
            lambda t: mp.log(mp.betainc(a, b, 0, mp.exp(t), regularized=True) / u),
            mp.log(x0))))


class TestSubnormalInverse:
    """Subnormal u whose root the tiny-x series does not take."""

    @pytest.mark.parametrize("u, a, b", [
        (5e-324, 33.663, 13.526), (3.5e-323, 33.663, 13.526), (1e-320, 33.663, 13.526),
        (1e-315, 33.663, 13.526), (1e-310, 33.663, 13.526), (1e-320, 80.0, 3.0)])
    def test_against_mpmath_root(self, u, a, b):
        # betaincinv alone is 104%, 104%, 62%, 49%, 5.8% and 2.5e-3 off here
        want = _mp_log_root(u, a, b)
        assert inv_reg_inc_beta(u, a, b) == pytest.approx(want, rel=1e-12)
        assert inv_reg_inc_beta(np.array([u]), a, b)[0] == inv_reg_inc_beta(u, a, b)

    def test_normal_u_keeps_betaincinv_bits(self):
        a, b = 33.663, 13.526
        u = np.array([5e-324, 1e-320, np.finfo(float).tiny, 1e-300, 0.3])
        z = inv_reg_inc_beta(u, a, b)
        assert np.array_equal(z[2:], sc.betaincinv(a, b, u[2:]))


def _mp_root_near(u, a, b, x):
    """50-digit root of I_x(a, b) = u, by Newton's method from a double x near it."""
    with mp.workdps(50):
        a, b, u, x = mp.mpf(a), mp.mpf(b), mp.mpf(u), mp.mpf(x)
        log_beta = mp.log(mp.beta(a, b))
        for _ in range(60):
            density = mp.exp((a - 1) * mp.log(x) + (b - 1) * mp.log1p(-x) - log_beta)
            step = (mp.betainc(a, b, 0, x, regularized=True) - u) / density
            x_next = min(max(x - step, x / 2), (x + 1) / 2)  # stay inside (0, 1)
            if abs(x_next - x) <= mp.mpf(10) ** -45 * x:
                return x_next
            x = x_next
    raise AssertionError(f"no root for u={u}, a={a}, b={b}")


_TABLE_SHAPES = [(2.0, 1.2), (1.2, 2.0), (0.3, 0.4), (0.1, 0.1), (5.0, 0.3), (0.05, 50.0),
                 (50.0, 50.0)]


@st.composite
def _table_inputs(draw):
    """Shapes and an array large enough for the table: uniform and
    log-uniform u, with subnormals, the floor 2^-64, 1/2, repeats, 0, 1 and
    values above 1/2 mixed in."""
    a = draw(st.floats(0.05, 50.0))
    b = draw(st.floats(0.05, 50.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = np.concatenate([
        rng.uniform(0.0, 0.5, 3000),
        np.exp(rng.uniform(-64.0 * math.log(2.0), math.log(0.5), 1500)),
        rng.uniform(0.5, 1.0, 200),
        np.full(50, rng.uniform(0.0, 0.5)),
        [0.5] * 20 + [0.0] * 5 + [1.0] * 5,
        [5e-324, 1e-310, 2.2250738585072014e-308, 2.0**-64, np.nextafter(2.0**-64, 0.0)],
    ])
    rng.shuffle(u)
    return a, b, u, rng


class TestTabulatedInverse:
    """The tabulated start and Halley step that large arrays take."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(inputs=_table_inputs())
    def test_residual_and_roots_on_the_table_path(self, inputs):
        a, b, u, rng = inputs
        results = []

        def spy(*args):
            results.append(real(*args))
            return results[-1]

        real = special._tabulated_inverse
        with mock.patch.object(special, "_tabulated_inverse", spy):
            z = inv_reg_inc_beta(u, a, b)
        assert len(results) == 1
        with mock.patch.object(special, "_tabulated_inverse", lambda *args: None):
            ref = inv_reg_inc_beta(u, a, b)  # the series and betaincinv alone

        in_range = (u >= 2.0**-64) & (u <= 0.5)
        np.testing.assert_array_equal(z[~in_range], ref[~in_range])
        differ = z != ref
        assert np.all(in_range[differ])
        # |I_z - u| / u, in ulp of z carried into u through d ln I / d ln z
        # (with a up to 50, one ulp of z moves I_z by up to 50 ulp of u), may
        # exceed betaincinv's by 4 ulp plus twice the betainc error that the
        # table tolerates at its nodes: the Halley step inherits betainc's
        # error at its start, and the residual adds it again at the result
        eps = np.finfo(float).eps
        allowed = 4.0 + 2.0 * special._BETAINC_ULPS
        ud, zd, rd = u[differ], z[differ], ref[differ]
        residual = np.abs(sc.betainc(a, b, zd) - ud) / ud
        residual_ref = np.abs(sc.betainc(a, b, rd) - ud) / ud
        cond = np.exp(a * np.log(rd) + (b - 1.0) * np.log1p(-rd) - sc.betaln(a, b) - np.log(ud))
        assert np.all(residual <= residual_ref + allowed * eps * np.maximum(1.0, cond))
        normal = in_range & (z >= np.finfo(float).tiny)
        for i in rng.choice(np.flatnonzero(normal), 2, replace=False):
            want = _mp_root_near(u[i], a, b, z[i])
            assert float(abs(z[i] - want) / want) <= 1e-12

    @pytest.mark.parametrize("a, b", _TABLE_SHAPES)
    def test_large_arrays_take_the_table(self, a, b):
        u = np.random.default_rng(6).uniform(0.0, 0.5, 5000)
        assert special._tabulated_inverse(u, a, b) is not None

    def test_betainc_runs_on_the_nodes_only(self, monkeypatch):
        # the residual of every entry comes from the quadrature, anchored on
        # the one betainc call at the n + 1 nodes
        a, b = 2.0, 1.2
        u = np.random.default_rng(12).random(100_000)
        n = math.ceil((math.log(0.5) - math.log(u[u <= 0.5].min())) / special._NODE_STEP)
        sizes = []
        betainc = sc.betainc
        monkeypatch.setattr(special.sc, "betainc",
                            lambda *args: sizes.append(np.size(args[2])) or betainc(*args))
        z = inv_reg_inc_beta(u, a, b)
        monkeypatch.undo()
        assert sizes == [n + 1]
        np.testing.assert_allclose(z, sc.betaincinv(a, b, u), rtol=4e-15)

    @pytest.mark.parametrize("a, b", _TABLE_SHAPES + [(50.0, 0.05)])
    def test_increment_within_its_bound(self, a, b):
        # on table intervals from u = 1e-4 to 1/2, the rule's increment from
        # either node across half the interval and across all of it, against
        # a 30-digit integral over the same s with the same ln B (betaln is
        # off by 1e-14 at (0.05, 50), and that is not the rule's error);
        # rounding adds a few ulp of the terms of the log-density
        n = math.ceil(math.log(0.5 / 1e-4) / special._NODE_STEP)
        zn = sc.betaincinv(a, b, np.exp(np.linspace(math.log(1e-4), math.log(0.5), n + 1)))
        y = np.log(zn)
        rate = special._quadrature_rate(a, b, zn, y)
        ln_beta = sc.betaln(a, b)
        i = np.repeat([0, n // 3, 2 * n // 3, n - 1], 4)
        j = i + np.tile([0, 0, 1, 1], 4)
        width = np.log1p((zn[i + 1] - zn[i]) / zn[i]) * np.tile([0.5, 1.0, -0.5, -1.0], 4)
        got = special._density_increment(a, b, ln_beta, y[j], width)
        bound = special._quadrature_bound(width, rate[i], got)
        scale = a * np.abs(y[j]) + abs(ln_beta) + abs(b - 1.0) * np.abs(np.log1p(-zn[j])) + 1.0
        with mp.workdps(30):
            A, B = mp.mpf(a), mp.mpf(b)
            log_beta = mp.mpf(ln_beta)
            for k in range(got.size):
                lo = mp.mpf(y[j[k]])
                want = mp.quad(lambda s: mp.exp(A * s + (B - 1) * mp.log1p(-mp.exp(s)) - log_beta),
                               [lo, lo + mp.mpf(width[k])])
                slack = 4.0 * np.finfo(float).eps * scale[k] * abs(got[k])
                assert float(abs(got[k] - want)) <= bound[k] + slack

    @pytest.mark.parametrize("a, b", [(2.0, 1.2), (1.2, 2.0), (5.0, 0.3), (50.0, 50.0)])
    def test_anchor_corrections_against_mpmath(self, a, b):
        # each node's betainc value averaged with its neighbours' is nearer
        # the 30-digit I(z_j), on the mean and at the worst node
        lo = math.log(1e-6) if a < 10.0 else math.log(1e-3)
        n = math.ceil((math.log(0.5) - lo) / special._NODE_STEP)
        un = np.exp(np.linspace(lo, math.log(0.5), n + 1))
        zn = sc.betaincinv(a, b, un)
        y = np.log(zn)
        i_nodes = sc.betainc(a, b, zn)
        rate = special._quadrature_rate(a, b, zn, y)
        corr = special._anchor_corrections(a, b, sc.betaln(a, b), zn, y, un, i_nodes, rate)
        with mp.workdps(30):
            want = np.array([float(mp.betainc(a, b, 0, mp.mpf(z), regularized=True)) for z in zn])
        raw = np.abs(i_nodes - want) / un
        corrected = np.abs((i_nodes - want) + corr) / un
        assert corrected.mean() <= 0.9 * raw.mean()
        assert corrected.max() <= raw.max()

    @pytest.mark.parametrize("a, b", _TABLE_SHAPES + [(50.0, 0.05)])
    def test_roots_against_mpmath(self, a, b, monkeypatch):
        u = np.random.default_rng(6).uniform(0.0, 0.5, 5000)
        starts = []
        betainc = sc.betainc
        with monkeypatch.context() as m:
            m.setattr(special.sc, "betainc", lambda *args: starts.append(args[2]) or betainc(*args))
            z = inv_reg_inc_beta(u, a, b)
        rate = special._quadrature_rate
        monkeypatch.setattr(special, "_quadrature_rate",
                            lambda *args: np.full_like(rate(*args), np.inf))
        every_betainc = inv_reg_inc_beta(u, a, b)  # the residual of betainc alone
        monkeypatch.setattr(special, "_tabulated_inverse", lambda *args: None)
        table = np.flatnonzero(every_betainc != inv_reg_inc_beta(u, a, b))
        # past the node check, betainc sees the starts of the entries whose
        # quadrature bound sent them back to its residual (at (0.1, 0.1), and
        # near z -> 1 at (5, 0.3) and (50, 0.05)); each one's root is the
        # nearest to its start
        starts = np.concatenate([np.empty(0)] + starts[1:])
        sent_back = np.abs(z - starts[:, None]).argmin(axis=1)
        assert (sent_back.size > 0) == ((a, b) in [(0.1, 0.1), (5.0, 0.3), (50.0, 0.05)])
        np.testing.assert_array_equal(z[sent_back], every_betainc[sent_back])
        rng = np.random.default_rng(7)
        pick = np.concatenate([rng.choice(table, min(40, table.size), replace=False),
                               sent_back[:8]])
        err, err_betainc, cond = [], [], []
        for i in pick:
            root = _mp_root_near(u[i], a, b, z[i])
            ulp = mp.mpf(np.spacing(float(root)))
            err.append(float(abs(z[i] - root) / ulp))
            err_betainc.append(float(abs(every_betainc[i] - root) / ulp))
            cond.append(u[i] / (z[i] * math.exp((a - 1.0) * math.log(z[i])
                                                + (b - 1.0) * math.log1p(-z[i]) - sc.betaln(a, b))))
        err, cond = np.array(err), np.array(cond)
        # betainc's error at the anchoring node, a few ulp of u, carried into
        # z by the conditioning d ln z / d ln u, for the sent-back entries too
        assert np.all(err <= 8.0 * np.maximum(1.0, cond))
        assert err.mean() <= np.mean(err_betainc) + 0.5 + 2.0 * cond.max()

    @pytest.mark.parametrize("a, b", [(2.0, 1.2), (1.2, 2.0)])
    def test_small_roots_against_mpmath(self, a, b):
        # roots down to 1e-6 and 5e-11, where ln z is -14 and -24: the increment's
        # interval ln z - ln z_j must be good to an ulp of itself, since a
        # difference of the two logarithms would carry |ln z| ulp into z
        u = np.exp(np.random.default_rng(8).uniform(math.log(1e-12), math.log(1e-3), 2000))
        z = inv_reg_inc_beta(u, a, b)
        for i in range(0, u.size, 80):
            root = _mp_root_near(u[i], a, b, z[i])
            assert float(abs(z[i] - root) / mp.mpf(np.spacing(float(root)))) <= 4.0

    def test_table_declined_where_betainc_misses_its_nodes(self):
        # scipy's betainc is off by up to ~2000 ulp at (43.5, 8), and
        # betaincinv is not; a Halley step on betainc would inherit that
        a, b = 43.5, 8.0
        u = np.random.default_rng(7).uniform(0.0, 0.5, 5000)
        assert special._tabulated_inverse(u, a, b) is None
        assert np.array_equal(inv_reg_inc_beta(u, a, b), sc.betaincinv(a, b, u))

    @pytest.mark.parametrize("a, b", [(2.0, 1.2), (1.2, 2.0), (0.3, 0.4), (30.0, 5.0)])
    def test_scalars_and_small_arrays_keep_betaincinv_bits(self, a, b):
        u = np.linspace(0.05, 0.95, 91)
        want = sc.betaincinv(a, b, u)
        assert np.array_equal(inv_reg_inc_beta(u, a, b), want)
        assert [inv_reg_inc_beta(v, a, b) for v in u] == want.tolist()

    def test_large_array_matches_betaincinv(self):
        u = np.random.default_rng(5).random(100_000)
        for a, b in ((2.0, 1.2), (1.2, 2.0)):
            np.testing.assert_allclose(inv_reg_inc_beta(u, a, b), sc.betaincinv(a, b, u),
                                       rtol=4e-15)

    def test_series_start_below_the_normal_range(self):
        # u a B underflows; the leading-term root comes from logarithms
        a, b, u = 17.094606035219375, 47.579994856211634, 1.5e-323
        want = _mp_inv_reg_inc_beta(u, a, b)
        assert inv_reg_inc_beta(u, a, b) == pytest.approx(want, rel=1e-12)


class TestIncompleteGamma:
    def test_at_zero_is_complete(self):
        for a in (0.3, 1.0, 2.4286, 7.0):
            assert upper_inc_gamma(a, 0.0) == pytest.approx(gamma_fn(a), rel=1e-13)

    def test_exponential_identity(self):
        for x in (0.1, 1.0, 5.0, 30.0):
            assert upper_inc_gamma(1.0, x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_decreasing_in_x(self):
        x = np.linspace(0, 20, 100)
        y = upper_inc_gamma(2.5, x)
        assert np.all(np.diff(y) < 0)

    def test_quadrature_oracle(self):
        for a, x in ((2.4286, 1.0), (0.7, 0.2), (5.0, 3.0)):
            want, _ = quad(lambda t: t ** (a - 1.0) * math.exp(-t), x, np.inf, limit=200)
            assert upper_inc_gamma(a, x) == pytest.approx(want, rel=1e-10)

    def test_against_scipy(self):
        rng = np.random.default_rng(30)
        for _ in range(200):
            a = rng.uniform(0.05, 40.0)
            x = rng.uniform(0.0, 80.0)
            want = _mp(mp.gammainc, a, x)
            assert upper_inc_gamma(a, x) == pytest.approx(want, rel=1e-10, abs=1e-280)

    def test_lower_regularized_against_scipy(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            a = rng.uniform(0.05, 40.0)
            x = rng.uniform(0.0, 80.0)
            want = _mp(mp.gammainc, a, 0.0, x, regularized=True)
            assert reg_lower_inc_gamma(a, x) == pytest.approx(want, rel=1e-10, abs=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            upper_inc_gamma(-1.0, 1.0)
        with pytest.raises(DomainError):
            upper_inc_gamma(1.0, -0.5)

