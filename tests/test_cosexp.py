import math

import numpy as np
import pytest

from pentacomplex import (ONE, DomainTooLarge, Overflow, PentaComplex, PowerKind,
                          cosexp_power, cosexp_values, exp_basis,
                          exp_h1_minus_h4, exp_h1_plus_h4, g5_closed,
                          g5_closed_radical, g5_series, multiply, power_coeffs)
from pentacomplex import elementary


def ring_exp_series(u: PentaComplex, nmax=120) -> PentaComplex:
    """Brute-force exp via the ring power series."""
    acc = ONE
    term = ONE
    for n in range(1, nmax):
        term = multiply(term, u) * (1.0 / n)
        acc = acc + term
    return acc


def test_series_at_zero():
    assert g5_series(0, 0.0, 10) == 1.0
    for k in range(1, 5):
        assert g5_series(k, 0.0, 10) == 0.0


def test_series_sum_is_exp():
    total = sum(g5_series(k, 1.0, 40) for k in range(5))
    assert abs(total - 2.718281828459045) <= 1e-15


def test_series_guard_and_validation():
    with pytest.raises(DomainTooLarge):
        g5_series(0, 50.5)
    with pytest.raises(ValueError):
        g5_series(5, 1.0)
    with pytest.raises(ValueError):
        g5_series(0, 1.0, 0)


def test_closed_matches_series_on_grid():
    for i in range(-50, 51, 2):
        y = i / 10.0
        for k in range(5):
            a = g5_series(k, y, 60)
            b = g5_closed(k, y)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a)), (k, y)


def test_no_definite_parity():
    plus = g5_closed(1, 1.0)
    minus = g5_closed(1, -1.0)
    assert abs(plus - minus) > 1e-3 and abs(plus + minus) > 1e-3


def test_radical_closed_form():
    assert abs(g5_closed_radical(0, 0.0) - 1.0) <= 1e-15
    for i in range(-50, 51, 2):
        y = i / 10.0
        for k in range(5):
            a = g5_closed_radical(k, y)
            b = g5_closed(k, y)
            assert abs(a - b) <= 1e-11 * max(1.0, abs(b)), (k, y)
    assert abs(g5_closed_radical(2, 1.0) - g5_series(2, 1.0, 60)) <= 1e-12


def test_exp_basis_identity_and_permutations():
    assert max(abs(a - b) for a, b in zip(exp_basis(1, 0.0), ONE)) <= 1e-15
    y = 0.8
    assert abs(exp_basis(1, y)[2] - g5_closed(2, y)) <= 1e-15
    assert abs(exp_basis(2, y)[2] - g5_closed(1, y)) <= 1e-15
    # against the ring power series of h_k * y
    for k in range(1, 5):
        for y in (0.3, -0.7, 1.9):
            comps = [0.0] * 5
            comps[k] = y
            want = ring_exp_series(PentaComplex(*comps))
            got = exp_basis(k, y)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * max(1.0, abs(want))


def test_exp_basis_matches_elementary_exp():
    for k in range(1, 5):
        for y in (0.5, -1.2):
            comps = [0.0] * 5
            comps[k] = y
            want = elementary.exp(PentaComplex(*comps))
            got = exp_basis(k, y)
            assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-12 * max(1.0, abs(want))


def test_sum_and_difference_exponentials():
    for y in np.linspace(-2, 2, 9):
        got = exp_h1_plus_h4(y)
        want = ring_exp_series(PentaComplex(0, y, 0, 0, y))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-11 * max(1.0, abs(want))
        got = exp_h1_minus_h4(y)
        want = ring_exp_series(PentaComplex(0, y, 0, 0, -y))
        assert max(abs(a - b) for a, b in zip(got, want)) <= 1e-11 * max(1.0, abs(want))


def test_product_construction():
    for y in (0.3, -0.8, 1.1):
        prod = multiply(exp_h1_plus_h4(y), exp_h1_minus_h4(y))
        want = exp_basis(1, 2 * y)
        assert max(abs(a - b) for a, b in zip(prod, want)) <= 1e-10 * max(1.0, abs(want))


def test_cosexp_power_identities():
    got = cosexp_power(1, 0.7, 0)
    assert max(abs(a - b) for a, b in zip(got, ONE)) <= 1e-15
    base = exp_basis(1, 0.7)
    got = cosexp_power(1, 0.7, 1)
    assert max(abs(a - b) for a, b in zip(got, base)) <= 1e-15
    cube = multiply(base, multiply(base, base))
    got = cosexp_power(1, 0.7, 3)
    assert max(abs(a - b) for a, b in zip(got, cube)) <= 1e-11 * max(1.0, abs(cube))
    with pytest.raises(ValueError):
        cosexp_power(0, 1.0, 2)
    with pytest.raises(ValueError):
        cosexp_power(1, 1.0, -1)


def test_exp_basis_addition_theorem():
    rng = np.random.default_rng(31)
    for _ in range(50):
        y, z = rng.uniform(-2, 2, 2)
        lhs = multiply(exp_basis(1, y), exp_basis(1, z))
        rhs = exp_basis(1, y + z)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-11 * max(1.0, abs(rhs))


def test_addition_theorems():
    rng = np.random.default_rng(30)
    for _ in range(100):
        y, z = rng.uniform(-3, 3, 2)
        gy = [g5_closed(k, y) for k in range(5)]
        gz = [g5_closed(k, z) for k in range(5)]
        for k in range(5):
            lhs = g5_closed(k, y + z)
            rhs = sum(gy[i] * gz[(k - i) % 5] for i in range(5))
            assert abs(lhs - rhs) <= 1e-11 * max(1.0, abs(lhs))


def test_derivative_chain():
    h = 1e-6
    for y in np.linspace(-3, 3, 13):
        for k in range(5):
            der = (g5_closed(k, y + h) - g5_closed(k, y - h)) / (2 * h)
            want = g5_closed((k - 1) % 5, y)
            assert abs(der - want) <= 1e-6 * max(1.0, abs(want))


def test_cosexp_vector_sum_invariant():
    for y in (-5.0, -1.3, 0.0, 2.4, 5.0):
        row = cosexp_values(y)
        assert abs(sum(row.g) - math.exp(y)) <= 1e-12 * max(1.0, math.exp(y))


def test_power_coeffs_seeds_and_agreement():
    pc = power_coeffs(PowerKind.A_PLUS, 40)
    assert pc.recurrence["A"][:3] == (1, 0, 3)
    assert pc.recurrence["B"][:3] == (0, 1, 1)
    assert pc.recurrence["C"][:3] == (0, 2, 0)
    assert pc.closed_form["A"][0] is None and pc.closed_form["A"][2] == 3
    assert pc.closed_form["C"][2] is None and pc.closed_form["C"][3] == pc.recurrence["C"][3]
    pc = power_coeffs(PowerKind.D_MINUS, 40)
    assert pc.recurrence["D"][:2] == (-3, 10)
    assert pc.recurrence["E"][:2] == (-1, 5)
    pc = power_coeffs(PowerKind.F_MINUS, 40)
    assert pc.recurrence["F"][:2] == (0, 1)
    assert pc.recurrence["G"][:2] == (1, -4)
    assert pc.recurrence["H"][:2] == (-2, 6)
    for kind in PowerKind:
        pc = power_coeffs(kind, 40)
        for name, rec in pc.recurrence.items():
            for idx, (r, cl) in enumerate(zip(rec, pc.closed_form[name]), start=1):
                if cl is not None:
                    assert r == cl, (name, idx)
    with pytest.raises(ValueError):
        power_coeffs(PowerKind.A_PLUS, 0)


def test_power_layouts_against_ring_powers():
    pc_a = power_coeffs(PowerKind.A_PLUS, 12)
    pw = ONE
    h1p4 = PentaComplex(0, 1, 0, 0, 1)
    for m in range(1, 13):
        pw = multiply(pw, h1p4)
        A = pc_a.recurrence["A"][m - 1]
        B = pc_a.recurrence["B"][m - 1]
        C = pc_a.recurrence["C"][m - 1]
        assert pw == PentaComplex(C, A, B, B, A), m
    pc_d = power_coeffs(PowerKind.D_MINUS, 6)
    pc_f = power_coeffs(PowerKind.F_MINUS, 6)
    pw = ONE
    h1m4 = PentaComplex(0, 1, 0, 0, -1)
    for n in range(1, 13):
        pw = multiply(pw, h1m4)
        if n == 1:
            assert pw == h1m4
        elif n % 2 == 1:
            m = (n - 1) // 2
            D = pc_d.recurrence["D"][m - 1]
            E = pc_d.recurrence["E"][m - 1]
            assert pw == PentaComplex(0, D, E, -E, -D), n
        else:
            m = n // 2
            F = pc_f.recurrence["F"][m - 1]
            G = pc_f.recurrence["G"][m - 1]
            H = pc_f.recurrence["H"][m - 1]
            assert pw == PentaComplex(H, F, G, G, F), n


@pytest.mark.parametrize("f", [
    pytest.param(lambda: exp_h1_plus_h4(400.0), id="exp_h1_plus_h4"),
    pytest.param(lambda: exp_h1_plus_h4(-800.0), id="exp_h1_plus_h4-negative"),
    pytest.param(lambda: exp_basis(1, 800.0), id="exp_basis"),
    pytest.param(lambda: cosexp_values(800.0), id="cosexp_values"),
    pytest.param(lambda: cosexp_power(2, 400.0, 2), id="cosexp_power"),
    pytest.param(lambda: g5_closed(3, -900.0), id="g5_closed"),
    pytest.param(lambda: g5_closed_radical(0, 1500.0), id="g5_closed_radical"),
])
def test_beyond_the_float_range_is_overflow(f):
    # math.exp would raise a raw OverflowError
    with pytest.raises(Overflow):
        f()
