import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pentacomplex import (ONE, DomainTooLarge, Overflow, PentaComplex, PowerKind,
                          cosexp_power, cosexp_values, exp_basis,
                          exp_h1_minus_h4, exp_h1_plus_h4, g5_closed,
                          g5_closed_radical, g5_series, multiply, power_coeffs)
from pentacomplex import cosexp, elementary

# up to this |y| the values come from the series (cosexp.SERIES_UP_TO)
SERIES_UP_TO = 2.0


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


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda n: g5_series(0, 1.0, n), "nterms", id="g5_series"),
    pytest.param(lambda n: power_coeffs(PowerKind.A_PLUS, n), "m", id="power_coeffs"),
])
@pytest.mark.parametrize("n", [2.5, math.nan, math.inf])
def test_a_count_that_is_not_a_whole_number_is_value_error(call, name, n):
    # a raw TypeError from range; 3.0 acts as 3
    with pytest.raises(ValueError, match=f"{name} must be a whole number"):
        call(n)
    assert call(3.0) == call(3)


def test_series_guard_and_validation():
    with pytest.raises(DomainTooLarge):
        g5_series(0, 50.5)
    with pytest.raises(ValueError):
        g5_series(5, 1.0)
    with pytest.raises(ValueError):
        g5_series(0, 1.0, 0)
    for f in (g5_closed, g5_closed_radical):
        for k in (-1, 5):
            with pytest.raises(ValueError, match="index must be 0..4"):
                f(k, 1.0)
    for k in (0, 5):
        with pytest.raises(ValueError, match="basis index must be 1..4"):
            exp_basis(k, 1.0)


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
    with pytest.raises(ValueError):
        power_coeffs("A_PLUS", 3)


def test_golden_integers_are_exact():
    phi = cosexp._Golden(0, 1)
    # phi^n = F(n-1) + F(n) phi, with the Fibonacci numbers F
    p = phi ** 90
    assert (p.p, p.q) == (1779979416004714189, 2880067194370816120)
    assert ((phi * phi - phi - 1) * 7).as_int() == 0
    assert ((10 - 5 * phi) / 5 + phi).as_int() == 2
    # a closed form that is not an integer raises, never rounds
    with pytest.raises(ArithmeticError, match="not an integer"):
        phi.as_int()
    with pytest.raises(ArithmeticError, match="not a golden integer"):
        (5 + 2 * phi) / 5
    with pytest.raises(ArithmeticError):
        cosexp._Golden(3) / 5


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
    # l * y is infinite; an int l beyond the float range
    pytest.param(lambda: cosexp_power(1, 1e308, 10), id="cosexp_power-infinite-argument"),
    pytest.param(lambda: cosexp_power(1, 1.0, 10 ** 400), id="cosexp_power-huge-power"),
    pytest.param(lambda: g5_closed(3, -900.0), id="g5_closed"),
    pytest.param(lambda: g5_closed_radical(0, 1500.0), id="g5_closed_radical"),
])
def test_beyond_the_float_range_is_overflow(f):
    # math.exp would raise a raw OverflowError
    with pytest.raises(Overflow):
        f()


@pytest.mark.parametrize("y", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("f", [
    pytest.param(cosexp_values, id="cosexp_values"),
    pytest.param(lambda y: g5_closed(1, y), id="g5_closed"),
    pytest.param(lambda y: g5_closed_radical(3, y), id="g5_closed_radical"),
    pytest.param(lambda y: exp_basis(1, y), id="exp_basis"),
    pytest.param(exp_h1_plus_h4, id="exp_h1_plus_h4"),
    pytest.param(exp_h1_minus_h4, id="exp_h1_minus_h4"),
    pytest.param(lambda y: cosexp_power(2, y, 3), id="cosexp_power"),
])
def test_a_non_finite_argument_is_outside_the_domain(f, y):
    # as g5_series refuses it; the others returned nan or raised a raw
    # "math domain error", "component is not finite", a conversion error or
    # Overflow
    with pytest.raises(DomainTooLarge):
        f(y)


@pytest.mark.parametrize("l", [math.nan, math.inf])
def test_a_non_finite_power_is_a_value_error(l):
    # nan passed the l < 0 test and raised Overflow from l * y
    with pytest.raises(ValueError, match="power must be finite"):
        cosexp_power(1, 0.7, l)


def exact_g5(k: int, y: float) -> Fraction:
    """sum_p y^(k+5p)/(k+5p)! in rational arithmetic, to a relative 1e-40
    of the first term (the terms decrease at once for |y| <= 2)."""
    y = Fraction(y)
    term = y ** k / math.factorial(k)
    total, n = Fraction(0), k
    while True:
        total += term
        for _ in range(5):
            n += 1
            term = term * y / n
        if abs(term) <= abs(y ** k / math.factorial(k)) / 10 ** 40:
            return total


def small_y():
    """y on [-SERIES_UP_TO, SERIES_UP_TO], uniform or log-uniform in |y|
    down to 1e-300, both signs."""
    log_uniform = st.builds(lambda sign, e: sign * min(SERIES_UP_TO, 10.0 ** e),
                            st.sampled_from((-1.0, 1.0)),
                            st.floats(-300.0, math.log10(SERIES_UP_TO)))
    return st.floats(-SERIES_UP_TO, SERIES_UP_TO) | log_uniform


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(small_y())
@example(1e-4)
@example(0.01)
@example(-0.05)
@example(SERIES_UP_TO)
@example(-SERIES_UP_TO)
def test_values_are_componentwise_accurate_for_small_y(y):
    # the closed form cancels here: at y = 1e-4 it got g54 wrong in every digit
    g = cosexp_values(y).g
    basis = exp_basis(1, y)
    for k in range(5):
        want = float(exact_g5(k, y))
        assert abs(g[k] - want) <= math.ulp(want), (k, y, g[k], want)
        assert basis[k] == g[k]


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(small_y())
def test_g5_series_is_the_values_series_bit_for_bit(y):
    g = cosexp_values(y).g
    for k in range(5):
        assert g5_series(k, y, 60).hex() == g[k].hex(), (k, y)


def test_series_range():
    assert cosexp.SERIES_UP_TO == SERIES_UP_TO


def test_values_at_zero_are_exact():
    assert cosexp_values(0.0).g == (1.0, 0.0, 0.0, 0.0, 0.0)
    assert cosexp_values(-0.0).g == (1.0, 0.0, 0.0, 0.0, 0.0)
    for k in range(1, 5):
        assert exp_basis(k, 0.0) == ONE


@settings(derandomize=True, deadline=None, database=None, max_examples=200)
@given(st.floats(SERIES_UP_TO, 700.0, exclude_min=True), st.sampled_from((-1.0, 1.0)))
def test_values_beyond_the_series_range_are_the_closed_form(r, sign):
    y = sign * r
    closed = tuple(g5_closed(k, y) for k in range(5))
    assert cosexp_values(y).g == closed
    for k in range(1, 5):
        assert all(exp_basis(k, y)[(k * m) % 5] == closed[m] for m in range(5))


def exact_exp_h1_h4(y: float, sign: int = 1) -> list[Fraction]:
    """exp((h1 + sign*h4) y) by the ring series in rational arithmetic: each
    term is the one before times (h1 + sign*h4) y / n, and h1, h4 shift the
    component index by +1 and -1 (mod 5).  Summed until a term's components
    are all below 1e-40 of the term y^2/2 (the smallest leading term), far
    below an ulp for |y| <= 2."""
    y = Fraction(y)
    term = [Fraction(1), Fraction(0), Fraction(0), Fraction(0), Fraction(0)]
    total = list(term)
    floor = y * y / 2 / 10 ** 40
    n = 0
    while n < 3 or max(map(abs, term)) > floor:
        n += 1
        term = [(term[(k - 1) % 5] + sign * term[(k + 1) % 5]) * y / n for k in range(5)]
        total = [t + s for t, s in zip(total, term)]
    return total


def ulps_off(got: float, want: Fraction) -> Fraction:
    return abs(Fraction(got) - want) / Fraction(math.ulp(float(want)))


@pytest.mark.parametrize("y", [1e-8, -1e-8, 1e-5, -1e-5, 1e-2, -1e-2, 1.0, 2.0])
def test_exp_h1_plus_h4_is_within_an_ulp_at_small_y(y):
    # the closed form cancels here: at y = 1e-8 its h2 and h3 components
    # were off by 1.6 relative, at 1e-5 by 1e-6
    got = exp_h1_plus_h4(y)
    for k, want in enumerate(exact_exp_h1_h4(y)):
        assert ulps_off(got[k], want) <= 1, (k, y)


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(small_y())
@example(SERIES_UP_TO)
@example(-SERIES_UP_TO)
@example(1.9999)
def test_exp_h1_plus_h4_is_componentwise_accurate_and_symmetric_for_small_y(y):
    got = exp_h1_plus_h4(y)
    assert got.x1 == got.x4 and got.x2 == got.x3
    for k, want in enumerate(exact_exp_h1_h4(y)):
        assert ulps_off(got[k], want) <= 1, (k, y)


# up to this |y| exp_h1_minus_h4 sums its ring series
MINUS_SERIES_UP_TO = 1.0


@settings(derandomize=True, deadline=None, database=None, max_examples=150)
@given(small_y().filter(lambda y: abs(y) <= MINUS_SERIES_UP_TO))
@example(1e-8)
@example(-1e-4)
@example(0.1)
@example(MINUS_SERIES_UP_TO)
@example(-MINUS_SERIES_UP_TO)
def test_exp_h1_minus_h4_is_componentwise_accurate_for_small_y(y):
    # the closed form cancelled here: at y = 1e-8 its h2 and h3 components
    # were 3.2e15 ulp off, at 1e-4 1.1e-8 relative
    got = exp_h1_minus_h4(y)
    for k, want in enumerate(exact_exp_h1_h4(y, -1)):
        assert ulps_off(got[k], want) <= 1, (k, y)


def test_minus_series_range():
    assert cosexp._MINUS_SERIES_UP_TO == MINUS_SERIES_UP_TO


def beyond_the_series_range(sign: float):
    """y with MINUS_SERIES_UP_TO < |y| <= 300 (SERIES_UP_TO for sign 1)."""
    lo = SERIES_UP_TO if sign > 0 else MINUS_SERIES_UP_TO
    return st.builds(lambda r, s: r * s, st.floats(lo, 300.0, exclude_min=True),
                     st.sampled_from((-1.0, 1.0)))


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(beyond_the_series_range(1), beyond_the_series_range(-1))
def test_exp_h1_pm_h4_beyond_the_series_range_is_the_lift(y_plus, y_minus):
    assert exp_h1_plus_h4(y_plus) == elementary.exp(PentaComplex(0.0, y_plus, 0.0, 0.0, y_plus))
    assert exp_h1_minus_h4(y_minus) == elementary.exp(PentaComplex(0.0, y_minus, 0.0, 0.0,
                                                                   -y_minus))


PI = Decimal("3.1415926535897932384626433832795028841971693993751"
             "058209749445923078164062862089986280348253421170679")


def decimal_cos(x: Decimal) -> Decimal:
    """cos x by its Taylor series after reduction by 2*pi."""
    x -= 2 * PI * (x / (2 * PI)).to_integral_value()
    term = total = Decimal(1)
    n = 0
    while abs(term) > Decimal(10) ** -70:
        n += 2
        term = -term * x * x / (n * (n - 1))
        total += term
    return total


def decimal_exp_h1_h4(y: float, sign: int) -> list[Decimal]:
    """exp((h1 + sign*h4) y) to 60 digits from the characters of the ring:
    component j is the mean over l of exp(lam_l) w^(-jl), w = exp(2*pi*i/5),
    where lam_l = y (w^l + sign*w^-l) is 2y cos(2*pi*l/5) for sign 1 and
    2iy sin(2*pi*l/5) for sign -1."""
    with localcontext() as ctx:
        ctx.prec = 60
        y = Decimal(y)
        angles = [2 * PI * l / 5 for l in range(5)]
        if sign > 0:
            comps = [sum((2 * y * decimal_cos(t)).exp() * decimal_cos(j * t) for t in angles)
                     for j in range(5)]
        else:
            comps = [sum(decimal_cos(2 * y * decimal_cos(t - PI / 2) - j * t) for t in angles)
                     for j in range(5)]
        return [c / 5 for c in comps]


@settings(derandomize=True, deadline=None, database=None, max_examples=48)
@given(beyond_the_series_range(1), beyond_the_series_range(-1))
@example(300.0, 300.0)
@example(-300.0, -300.0)
def test_exp_h1_pm_h4_beyond_the_series_range_is_normwise_accurate(y_plus, y_minus):
    # the exponents y*(w^l +- w^-l) reach 2|y| and are rounded, so the
    # error grows with |y|; the closed forms these values came from before
    # the lift measured at most 0.94 * (4 + |y|) eps on the same oracle
    for y, sign, f in ((y_plus, 1, exp_h1_plus_h4), (y_minus, -1, exp_h1_minus_h4)):
        want = decimal_exp_h1_h4(y, sign)
        err = max(abs(Decimal(g) - w) for g, w in zip(f(y), want))
        assert err <= Decimal((4 + 2 * abs(y)) * 2 ** -52) * max(map(abs, want)), (y, sign)
