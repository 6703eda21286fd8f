import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentacomplex import (H1, ONE, ZERO, CanonicalForm, Degenerate,
                          InvalidPairing, LinearFactor, NoConvergence,
                          NonInvertibleLeading, PentaComplex, PentaPolynomial,
                          QuadraticFactor, RootSet, assemble_roots,
                          component_roots, count_factorizations, decompose,
                          expand_factors, factor, from_canonical, multiply,
                          to_canonical)
from pentacomplex import polyfactor
from pentacomplex.canonical import E1, E2, E_PLUS, P, Q

SQRT5 = math.sqrt(5.0)


def rand(rng, lo=-2.0, hi=2.0):
    return PentaComplex(*rng.uniform(lo, hi, 5))


def dev(u, v):
    return max(abs(a - b) for a, b in zip(u, v))


def scalar(x):
    return PentaComplex.scalar(x)


def u2_minus_1():
    return PentaPolynomial((ZERO, scalar(-1.0)))


def _ring_horner(poly, u):
    """The loop PentaPolynomial.evaluate ran before it called series_eval."""
    acc = PentaComplex.scalar(1.0)
    for a in poly.coeffs:
        acc = multiply(acc, u) + a
    return acc


def _outcome(f, *args):
    try:
        return tuple(x.hex() for x in f(*args).components)
    except Exception as exc:  # noqa: BLE001 -- compared by type and message
        return type(exc), str(exc)


def test_evaluate_is_series_eval_bit_for_bit():
    rng = np.random.default_rng(22)
    raised = 0
    for _ in range(3000):
        degree = int(rng.integers(1, 12))
        scale = 10.0 ** rng.uniform(-100, 100)
        poly = PentaPolynomial(tuple(rand(rng, -scale, scale) for _ in range(degree)))
        u = rand(rng, -scale, scale)
        want = _outcome(_ring_horner, poly, u)
        assert _outcome(poly.evaluate, u) == want, (poly, u)
        raised += isinstance(want[0], type)
    # both sides raise Overflow on part of the pool, and return on the rest
    assert 0 < raised < 3000


def test_polynomial_basics():
    p = u2_minus_1()
    assert p.degree == 2
    assert dev(p.evaluate(scalar(3.0)), scalar(8.0)) <= 1e-14
    with pytest.raises(ValueError):
        PentaPolynomial(())


def test_from_leading_normalizes():
    # 2u^2 - 2 normalised by its leading coefficient
    p = PentaPolynomial.from_leading(scalar(2.0), (ZERO, scalar(-2.0)))
    assert dev(p.coeffs[1], scalar(-1.0)) <= 1e-15
    with pytest.raises(NonInvertibleLeading):
        PentaPolynomial.from_leading(E_PLUS, (ZERO,))


def test_decompose_u2_minus_1():
    cp = decompose(u2_minus_1())
    assert cp.pplus == (1.0, 0.0, -1.0)
    assert cp.p1[0] == 1 and abs(cp.p1[1]) == 0 and abs(cp.p1[2] + 1) <= 1e-15
    assert abs(cp.p2[2] + 1) <= 1e-15


def test_decompose_degree_one_is_canonical_components():
    rng = np.random.default_rng(70)
    c = rand(rng)
    cp = decompose(PentaPolynomial((c,)))
    cf = to_canonical(c)
    assert abs(cp.pplus[1] - cf.vplus) <= 1e-13
    assert abs(cp.p1[1] - complex(cf.v1, cf.tv1)) <= 1e-13
    assert abs(cp.p2[1] - complex(cf.v2, cf.tv2)) <= 1e-13


def test_component_evaluation_agrees_with_ring_horner():
    rng = np.random.default_rng(71)
    for _ in range(20):
        poly = PentaPolynomial(tuple(rand(rng) for _ in range(4)))
        cp = decompose(poly)
        for _ in range(5):
            u = rand(rng, -1.5, 1.5)
            a = poly.evaluate(u)
            b = cp.evaluate(u)
            assert dev(a, b) <= 1e-12 * max(1.0, abs(a))


# coefficient components log-uniform in 1e-3..1e3 with either sign
COMPONENT = st.builds(lambda sign, e: sign * 10.0 ** e,
                      st.sampled_from((-1.0, 1.0)), st.floats(-3.0, 3.0))
COEFF = st.builds(PentaComplex, *[COMPONENT] * 5)


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(COEFF, min_size=1, max_size=12),
       st.builds(PentaComplex, *[st.floats(-1.5, 1.5)] * 5))
def test_component_evaluation_matches_ring_horner_property(coeffs, u):
    poly = PentaPolynomial(tuple(coeffs))
    a = poly.evaluate(u)
    b = decompose(poly).evaluate(u)
    # |a_l u^(m-l)| <= |a_l| (sqrt5 |u|)^(m-l) bounds every Horner term
    m = len(coeffs)
    scale = sum(abs(c) * (SQRT5 * abs(u)) ** (m - l) for l, c in enumerate((ONE, *coeffs)))
    assert dev(a, b) <= 1e-12 * max(1.0, scale)


def ring_poly_mul(p, q):
    """Product of two coefficient lists in ring arithmetic: the reference."""
    out = [ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + multiply(a, b)
    return out


FACTOR = st.one_of(st.builds(LinearFactor, COEFF), st.builds(QuadraticFactor, COEFF, COEFF))


def first_factors_of_degree_at_most(factors, m=12):
    degrees = np.cumsum([1 if isinstance(f, LinearFactor) else 2 for f in factors])
    return factors[:int(np.searchsorted(degrees, m, side="right"))]


@settings(derandomize=True, deadline=None, database=None, max_examples=100)
@given(st.lists(FACTOR, min_size=1, max_size=12).map(first_factors_of_degree_at_most))
def test_expand_factors_matches_the_ring_product(factors):
    want = [ONE]
    mag = np.ones(1)
    for f in factors:
        coeffs = [ONE, -f.root] if isinstance(f, LinearFactor) else [ONE, f.b, f.c]
        want = ring_poly_mul(want, coeffs)
        # coefficient j of the product of the factors' moduli bounds the
        # terms of coefficient j
        mag = np.convolve(mag, [SQRT5 * abs(c) for c in coeffs])
    got = expand_factors(factors).coeffs
    assert len(got) == len(want) - 1
    for j, (a, b) in enumerate(zip(got, want[1:]), start=1):
        assert dev(a, b) <= 1e-12 * max(1.0, mag[j]), j


def test_component_roots_u2_minus_1():
    rs = component_roots(decompose(u2_minus_1()))
    for roots in (rs.vplus_roots, rs.plane1_roots, rs.plane2_roots):
        assert abs(roots[0] + 1) <= 1e-12 and abs(roots[1] - 1) <= 1e-12


def test_component_roots_linear_in_h1():
    # P(u) = u - h1: each component root is the canonical component of h1
    poly = PentaPolynomial((-1.0 * H1,))
    rs = component_roots(decompose(poly))
    p, q = P, Q
    assert abs(rs.vplus_roots[0] - 1) <= 1e-13
    assert abs(rs.plane1_roots[0] - complex(p, q)) <= 1e-13
    assert abs(rs.plane2_roots[0] - complex(2 * p * p - 1, 2 * p * q)) <= 1e-13


def test_component_roots_cubic_with_known_roots():
    # (u-1)(u-2)(u-3) = u^3 - 6u^2 + 11u - 6 with scalar coefficients
    poly = PentaPolynomial.from_scalar_roots([1.0, 2.0, 3.0])
    assert dev(poly.coeffs[0], scalar(-6.0)) <= 1e-12
    rs = component_roots(decompose(poly))
    for roots in (rs.vplus_roots, rs.plane1_roots, rs.plane2_roots):
        got = sorted(r.real for r in roots)
        assert max(abs(g - w) for g, w in zip(got, (1.0, 2.0, 3.0))) <= 1e-8
        assert max(abs(r.imag) for r in roots) <= 1e-8


def test_assemble_roots_of_u2_minus_1():
    rs = component_roots(decompose(u2_minus_1()))
    # all-plus pairing gives the scalar roots +-1
    roots = assemble_roots(rs, [(1, 1, 1), (0, 0, 0)])
    assert dev(roots[0], ONE) <= 1e-12
    assert dev(roots[1], -1.0 * ONE) <= 1e-12
    # mixed pairing: e+ + e1 - e2 carries the golden-ratio coefficients
    roots = assemble_roots(rs, [(1, 1, 0), (0, 0, 1)])
    want = PentaComplex(0.2, (SQRT5 + 1) / 5, -(SQRT5 - 1) / 5,
                        -(SQRT5 - 1) / 5, (SQRT5 + 1) / 5)
    assert dev(roots[0], want) <= 1e-12


def test_assemble_roots_validates_pairing():
    rs = component_roots(decompose(u2_minus_1()))
    with pytest.raises(InvalidPairing):
        assemble_roots(rs, [(0, 0, 0), (0, 1, 1)])  # line index reused
    with pytest.raises(InvalidPairing):
        assemble_roots(rs, [(0, 0, 0)])  # wrong length
    # complex line roots cannot make a real linear factor
    plus_one = PentaPolynomial((ZERO, scalar(1.0)))  # u^2 + 1
    rs = component_roots(decompose(plus_one))
    with pytest.raises(InvalidPairing):
        assemble_roots(rs, [(0, 0, 0), (1, 1, 1)])


def test_factor_u2_minus_1_default_pairing():
    factors = factor(u2_minus_1())
    assert all(isinstance(f, LinearFactor) for f in factors)
    roots = sorted(f.root.x0 for f in factors)
    assert dev(factors[0].root, -1.0 * ONE) <= 1e-10 or \
        dev(factors[0].root, ONE) <= 1e-10
    got = sorted((round(f.root.x0, 6) for f in factors))
    assert got == [-1.0, 1.0]
    rebuilt = expand_factors(factors)
    for a, b in zip(u2_minus_1().coeffs, rebuilt.coeffs):
        assert dev(a, b) <= 1e-10
    with pytest.raises(TypeError, match="unknown factor type"):
        expand_factors([object()])


def test_factor_u2_plus_1_is_one_quadratic():
    poly = PentaPolynomial((ZERO, scalar(1.0)))
    factors = factor(poly)
    assert len(factors) == 1 and isinstance(factors[0], QuadraticFactor)
    assert dev(factors[0].b, ZERO) <= 1e-10
    assert dev(factors[0].c, ONE) <= 1e-10
    rebuilt = expand_factors(factors)
    for a, b in zip(poly.coeffs, rebuilt.coeffs):
        assert dev(a, b) <= 1e-10


def test_factor_random_polynomials_reconstruct():
    rng = np.random.default_rng(72)
    for degree in range(1, 7):
        for _ in range(3):
            poly = PentaPolynomial(tuple(rand(rng) for _ in range(degree)))
            factors = factor(poly)
            rebuilt = expand_factors(factors)
            scale = 1.0 + max(abs(a) for a in poly.coeffs)
            for a, b in zip(poly.coeffs, rebuilt.coeffs):
                assert dev(a, b) <= 1e-8 * scale
            norm = 1.0 + math.sqrt(sum(abs(a) ** 2 for a in poly.coeffs))
            for f in factors:
                if isinstance(f, LinearFactor):
                    assert abs(poly.evaluate(f.root)) <= 1e-8 * norm


def test_conjugate_pairing_of_line_roots():
    rng = np.random.default_rng(73)
    for _ in range(20):
        # real scalar coefficients force conjugate-symmetric line roots
        poly = PentaPolynomial(tuple(scalar(x) for x in rng.uniform(-2, 2, 5)))
        rs = component_roots(decompose(poly))
        pending = [r for r in rs.vplus_roots if abs(r.imag) > 1e-10]
        while pending:
            r = pending.pop()
            partner = min(pending, key=lambda s: abs(s - r.conjugate()))
            assert abs(partner - r.conjugate()) <= 1e-10
            pending.remove(partner)


def test_count_factorizations():
    assert count_factorizations(u2_minus_1()) == 4
    assert count_factorizations(PentaPolynomial((scalar(-2.0),))) == 1
    cubic = PentaPolynomial.from_scalar_roots([1.0, 2.0, 3.0])
    assert count_factorizations(cubic) == 36
    with pytest.raises(Degenerate):
        count_factorizations(PentaPolynomial.from_scalar_roots([1.0, 1.0]))
    with pytest.raises(Degenerate):
        count_factorizations(PentaPolynomial((ZERO, scalar(1.0))))  # u^2 + 1


def test_sign_pattern_square_identity():
    for s0 in (1, -1):
        for s1 in (1, -1):
            for s2 in (1, -1):
                r = s0 * E_PLUS + s1 * E1 + s2 * E2
                assert dev(multiply(r, r), ONE) <= 1e-15


def test_polynomial_serialization():
    p = u2_minus_1()
    assert PentaPolynomial.from_dict(p.to_dict()) == p


def test_factor_line_roots_sharing_a_real_part():
    # u^4 + 5u^2 + 4 = (u^2 + 1)(u^2 + 4): line roots +-i and +-2i all have
    # real part 0, so conjugates are not adjacent after the (re, im) sort
    poly = PentaPolynomial((ZERO, scalar(5.0), ZERO, scalar(4.0)))
    factors = factor(poly)
    assert len(factors) == 2 and all(isinstance(f, QuadraticFactor) for f in factors)
    for a, b in zip(poly.coeffs, expand_factors(factors).coeffs):
        assert dev(a, b) <= 1e-14
    # u^3 + u = u(u^2 + 1): a real line root between a conjugate pair
    poly = PentaPolynomial((ZERO, scalar(1.0), ZERO))
    factors = factor(poly)
    assert sorted(type(f).__name__ for f in factors) == ["LinearFactor", "QuadraticFactor"]
    for a, b in zip(poly.coeffs, expand_factors(factors).coeffs):
        assert dev(a, b) <= 1e-14


def test_factor_double_root_gives_linear_factors():
    poly = PentaPolynomial.from_scalar_roots([1.0, 1.0])
    factors = factor(poly)
    assert len(factors) == 2 and all(isinstance(f, LinearFactor) for f in factors)
    for f in factors:
        assert dev(f.root, ONE) <= 1e-7
    for a, b in zip(poly.coeffs, expand_factors(factors).coeffs):
        assert dev(a, b) <= 1e-14
    with pytest.raises(Degenerate):
        count_factorizations(poly)


@pytest.mark.parametrize("k", [-60, -30, 0, 30, 60])
def test_root_tolerances_are_unchanged_under_scaling(k):
    # roots scaled by 2^k (exact): coefficient j scales by 2^(j*k), and both
    # the real/complex and the coincidence tests read the same roots
    s = 2.0 ** k
    # line roots 1e-9 * (1 +- 0.5i): one quadratic factor at every scale
    poly = PentaPolynomial((scalar(-2e-9 * s), scalar(1.25e-18 * s * s)))
    factors = factor(poly)
    assert [type(f) for f in factors] == [QuadraticFactor]
    for a, b in zip(poly.coeffs, expand_factors(factors).coeffs):
        assert dev(a, b) <= 1e-14 * abs(a)
    roots = [1e-6 * s, 2e-6 * s, 3e-6 * s]
    assert count_factorizations(PentaPolynomial.from_scalar_roots(roots)) == 36
    with pytest.raises(Degenerate):
        count_factorizations(PentaPolynomial.from_scalar_roots([s, s]))


def test_line_roots_within_tau_real_count_as_real():
    # a split double root: the conjugate pair within TAU_REAL is real
    for im, real in ((1e-10, True), (1e-3, False)):
        rs = RootSet((complex(1, -im), complex(1, im)), (1j, -1j), (2.0, -2.0))
        if real:
            roots = assemble_roots(rs, [(0, 0, 0), (1, 1, 1)])
            assert roots[0].components == from_canonical(
                CanonicalForm(1.0, 0.0, 1.0, 2.0, 0.0)).components
        else:
            with pytest.raises(InvalidPairing):
                assemble_roots(rs, [(0, 0, 0), (1, 1, 1)])


@pytest.mark.parametrize("s", [1.0, 0.1])
def test_real_line_roots_have_no_imaginary_part(s):
    # the line polynomial is real, so its companion matrix's real eigenvalues
    # carry no imaginary noise for the relative TAU_REAL cutoff to misread,
    # also where every root is well inside the unit interval
    rng = np.random.default_rng(7)
    for m in (8, 16):
        line = sorted(s * rng.uniform(-1.0, 1.0, m))
        poly = PentaPolynomial.from_scalar_roots(line)
        rs = component_roots(decompose(poly))
        assert all(r.imag == 0.0 for r in rs.vplus_roots)
        assert all(isinstance(f, LinearFactor) for f in factor(poly))


def component_arrays(poly):
    cp = decompose(poly)
    return [np.array(cp.pplus, dtype=complex), np.array(cp.p1), np.array(cp.p2)]


def factor_components(f):
    coeffs = (-1.0 * f.root,) if isinstance(f, LinearFactor) else (f.b, f.c)
    return component_arrays(PentaPolynomial(coeffs))


def reconstruction_error(poly, factors):
    """Largest coefficient residual of expand_factors(factors) on the three
    component polynomials, coefficient j scaled by the largest, over the
    components, coefficient j of the product of the factors with their
    component coefficients replaced by absolute values."""
    mag = [np.ones(1)] * 3
    for f in factors:
        mag = [np.convolve(m, np.abs(c)) for m, c in zip(mag, factor_components(f))]
    scale = np.max(mag, axis=0)
    got = component_arrays(expand_factors(factors))
    want = component_arrays(poly)
    return max(float(np.max(np.abs(g - w) / scale)) for g, w in zip(got, want))


def backward_errors(poly):
    """|p(z)| / sum_j s_j |z|^(m-j) for every component root z of p, with
    s_j the largest |coefficient j| over the three components."""
    comps = component_arrays(poly)
    s = np.max(np.abs(comps), axis=0)
    rs = component_roots(decompose(poly))
    out = []
    for p, roots in zip(comps, (rs.vplus_roots, rs.plane1_roots, rs.plane2_roots)):
        z = np.array(roots)
        out.extend(np.abs(np.polyval(p, z)) / np.polyval(s, np.abs(z)))
    return np.array(out)


def random_poly(rng, m):
    return PentaPolynomial(tuple(rand(rng, -1.0, 1.0) for _ in range(m)))


def known_root_poly(rng, m):
    # real line roots in [-1, 1], plane roots spread around the unit circle
    line = rng.uniform(-1.0, 1.0, m)
    planes = [rng.uniform(0.8, 1.2, m) * np.exp(1j * (rng.uniform(0, 2 * np.pi)
                                                      + 2 * np.pi * np.arange(m) / m))
              for _ in range(2)]
    roots = [from_canonical(CanonicalForm(v, z1.real, z1.imag, z2.real, z2.imag))
             for v, z1, z2 in zip(line, *planes)]
    return expand_factors([LinearFactor(r) for r in roots])


@pytest.mark.parametrize("m", [32, 64])
@pytest.mark.parametrize("make", [random_poly, known_root_poly], ids=["random", "known"])
def test_factor_at_high_degree(m, make):
    rng = np.random.default_rng(74 + m)
    for _ in range(3):
        poly = make(rng, m)
        factors = factor(poly)
        assert sum(1 if isinstance(f, LinearFactor) else 2 for f in factors) == m
        assert reconstruction_error(poly, factors) <= 1e-12
        assert backward_errors(poly).max() <= polyfactor.GATE * m * polyfactor.EPS


def test_gate_rejects_a_moved_root(monkeypatch):
    poly = random_poly(np.random.default_rng(75), 8)
    roots = np.roots
    for target in range(3):
        calls = []

        def moved(p):
            z = roots(p).astype(complex)
            if len(calls) == target:
                z[0] += 1e-6
            calls.append(p)
            return z

        monkeypatch.setattr(np, "roots", moved)
        with pytest.raises(NoConvergence, match="backward-error gate"):
            component_roots(decompose(poly))
        calls.clear()
        with pytest.raises(NoConvergence, match="backward-error gate"):
            factor(poly)
    monkeypatch.setattr(np, "roots", lambda p: np.full(len(p) - 1, np.nan))
    with pytest.raises(NoConvergence, match="non-finite"):
        component_roots(decompose(poly))
    monkeypatch.setattr(np, "roots", roots)
    component_roots(decompose(poly))


def test_factor_rejects_a_complex_line_root_without_its_conjugate(monkeypatch):
    broken = RootSet((complex(1, -2), complex(1, 1)), (1j, -1j), (2.0, -2.0))
    monkeypatch.setattr(polyfactor, "component_roots", lambda cp: broken)
    with pytest.raises(NoConvergence, match="conjugate"):
        factor(u2_minus_1())


def closest_pair_by_scan(pool):
    # every pair in index order; the first with the smallest gap wins
    best, best_gap = None, math.inf
    for i in range(len(pool)):
        for j in range(i + 1, len(pool)):
            gap = abs(abs(pool[i]) - abs(pool[j]))
            if gap < best_gap:
                best, best_gap = (i, j), gap
    return best


def test_closest_modulus_pair_matches_a_scan_of_all_pairs():
    rng = np.random.default_rng(23)
    for trial in range(400):
        m = int(rng.integers(2, 40))
        # half the pools draw moduli from a few values, so moduli tie; all
        # moduli lie in [1, 2), where every gap is computed exactly
        if trial % 2:
            mods = rng.choice(1.0 + rng.random(3), m)
        else:
            mods = 1.0 + rng.random(m)
        pool = [complex(r * np.cos(t), r * np.sin(t))
                for r, t in zip(mods, rng.uniform(0.0, 2 * np.pi, m))]
        i, j = polyfactor._closest_modulus_pair(pool)
        want = closest_pair_by_scan(pool)
        assert i < j
        assert abs(abs(pool[i]) - abs(pool[j])) == abs(abs(pool[want[0]]) - abs(pool[want[1]]))
        assert (i, j) == want
