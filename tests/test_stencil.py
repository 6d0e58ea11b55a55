"""Stencil and basis identities on the periodic element ring."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from holodisc import (
    ConfigError,
    alternating_signs,
    csn,
    delta2,
    delta4,
    lattice_decay_rates,
    mode_decay_rate,
    mudelta,
)
from holodisc.stencil import operands, ring_images, ring_index, ring_pad


def ring(m, seed=0):
    return np.random.default_rng(seed).normal(size=m)


class TestCentredOperators:
    def test_constants_lie_in_every_kernel(self):
        u = 0.7 * np.ones(8)
        assert np.all(delta2(u) == 0.0)
        assert np.all(delta4(u) == 0.0)
        assert np.all(mudelta(u) == 0.0)

    def test_alternating_pattern_images(self):
        """The period-2 ring mode is a delta2 eigenvector with value -4."""
        alt = alternating_signs(6)
        assert np.allclose(delta2(alt), -4.0 * alt)
        assert np.allclose(delta4(alt), 16.0 * alt)
        assert np.allclose(mudelta(alt), 0.0)

    def test_delta4_iterates_delta2(self, rng):
        u = rng.normal(size=12)
        assert np.allclose(delta4(u), delta2(delta2(u)))

    def test_fourier_mode_eigenvalues(self):
        m = 16
        j = np.arange(m)
        q = 2.0 * np.pi / m
        c = np.cos(q * j + 0.3)
        s = np.sin(q * j + 0.3)
        assert np.allclose(delta2(c), (2.0 * np.cos(q) - 2.0) * c)
        assert np.allclose(mudelta(c), -np.sin(q) * s)

    def test_complex_rings_stay_complex(self, rng):
        """Phasor rings: each operator acts on real and imaginary parts."""
        z = rng.normal(size=7) + 1j * rng.normal(size=7)
        for op in (delta2, delta4, mudelta):
            out = op(z)
            assert out.dtype == np.complex128
            assert np.array_equal(out.real, op(z.real))
            assert np.array_equal(out.imag, op(z.imag))

    def test_stacks_act_row_by_row(self, rng):
        rows = rng.normal(size=(3, 9))
        for op in (delta2, delta4, mudelta):
            assert np.array_equal(op(rows), np.stack([op(r) for r in rows]))

    def test_neighbours_wrap_periodically(self):
        u = np.arange(5.0)
        d = delta2(u)
        assert d[0] == u[1] - 2.0 * u[0] + u[-1]
        assert d[-1] == u[0] - 2.0 * u[-1] + u[-2]


@pytest.mark.parametrize("m", [2, 3, 4, 1024])
@pytest.mark.parametrize("kind", ["real", "complex", "stack", "integer"])
def test_ring_images_equal_the_separate_operators(m, kind):
    rng = np.random.default_rng(m)
    s = {"real": lambda: rng.normal(size=m),
         "complex": lambda: rng.normal(size=m) + 1j * rng.normal(size=m),
         "stack": lambda: rng.normal(size=(3, m)),
         "integer": lambda: rng.integers(-9, 9, size=m)}[kind]()
    for got, op in zip(ring_images(s), (mudelta, delta2, delta4)):
        want = op(s)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


def test_ring_images_refuse_a_ring_shorter_than_their_pad():
    with pytest.raises(ValueError, match="2 or more values"):
        ring_images(np.ones(1))


def test_operands_are_read_only_and_round_as_python_floats():
    """Forms share their bound constants, so none may be written in place;
    as operands they give a Python float's bits."""
    u = ring(64) * 1e3
    values = (2.0, 1.0 / 3.0, 3, -7.5e-300)
    for v, a in zip(values, operands(*values)):
        assert a.shape == () and a.dtype == np.float64
        assert not a.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            a[()] = 0.0
        with pytest.raises(ValueError, match="read-only"):
            np.multiply(a, 2.0, out=a)
        for got, want in ((u * a, u * v), (u / a, u / v), (u + a, u + v),
                          (a - u, v - u), (abs(u)**a, abs(u)**v)):
            assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m, width", [(1, 1), (2, 2), (5, 1), (64, 2)])
def test_ring_index_is_a_cached_read_only_ring_pad(m, width):
    at = ring_index(m, width)
    assert at is ring_index(m, width) and not at.flags.writeable
    s = np.stack([ring(m), ring(m, 1)])
    assert np.array_equal(s[..., at], ring_pad(s, width))


class TestOperatorAlgebra:
    @given(st.integers(4, 12), st.floats(-3, 3), st.floats(-3, 3))
    def test_operators_are_linear(self, m, a, b):
        x = ring(m, seed=1)
        y = ring(m, seed=2)
        for op in (delta2, delta4, mudelta):
            assert np.allclose(op(a * x + b * y), a * op(x) + b * op(y))

    @given(st.integers(4, 12))
    def test_delta2_commutes_with_mudelta(self, m):
        x = ring(m, seed=3)
        assert np.allclose(delta2(mudelta(x)), mudelta(delta2(x)))


class TestBasisAndRates:
    def test_csn_splits_by_parity(self):
        theta = np.linspace(-np.pi, np.pi, 9)
        assert np.allclose(csn(0, theta), 1.0)
        assert np.allclose(csn(1, theta), np.sin(theta))
        assert np.allclose(csn(2, theta), np.cos(2.0 * theta))
        assert np.allclose(csn(3, theta), np.sin(3.0 * theta))

    def test_csn_orthogonal_on_core_window(self):
        theta = np.linspace(-np.pi / 2.0, np.pi / 2.0, 4001)
        for j in range(4):
            for k in range(j + 1, 4):
                prod = csn(j, theta) * csn(k, theta)
                assert abs(np.trapezoid(prod, theta)) < 1e-6

    def test_mode_decay_rates(self):
        for H in (0.5, 1.0, np.pi / 2.0):
            for k in (1, 2, 4, 6):
                assert np.isclose(mode_decay_rate(k, H), (k * np.pi / H) ** 2)

    def test_lattice_rate_pair(self):
        H = 1.3
        r1, r2 = lattice_decay_rates(H)
        assert np.isclose(r1, 8.0 / H**2)
        assert np.isclose(r2, 16.0 / H**2)

    def test_alternating_needs_even_ring(self):
        with pytest.raises(ConfigError):
            alternating_signs(5)

    def test_alternating_starts_negative(self):
        assert np.array_equal(alternating_signs(4), [-1.0, 1.0, -1.0, 1.0])

    def test_alternating_is_cached_and_read_only(self):
        for m in (4, 6, 64):
            alt = alternating_signs(m)
            assert alt is alternating_signs(m)
            assert not alt.flags.writeable
            assert np.array_equal(alt, np.where(np.arange(m) % 2 == 0, -1.0, 1.0))
        with pytest.raises(ValueError):
            alternating_signs(4)[0] = 1.0
