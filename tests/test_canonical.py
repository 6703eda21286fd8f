import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from pentacomplex import (E1, E1_TILDE, E2, E2_TILDE, E_PLUS, H1,
                          ONE, CanonicalForm, Overflow, PentaComplex, PolarForm,
                          RotatedCoords, add, canonical_basis,
                          canonical_multiply, check_cr_relations,
                          check_second_order, exp, from_canonical, from_matrix,
                          inverse, irreducible_rep, multiply, polar_form,
                          rotated_coords, rotation_matrix, to_canonical,
                          to_matrix)
import pentacomplex
from pentacomplex import amplitude, log, pow_real
from pentacomplex.canonical import (_E1, _E2, _E_PLUS, _TE1, _TE2, P, Q,
                                   _from_canon_comps)


def rand(rng, lo=-10.0, hi=10.0):
    return PentaComplex(*rng.uniform(lo, hi, 5))


def as_tuple(c: CanonicalForm):
    return (c.vplus, c.v1, c.tv1, c.v2, c.tv2)


def test_transform_constants_are_fifth_circle_trig():
    assert abs(P - math.cos(2 * math.pi / 5)) <= 1e-16
    assert abs(Q - math.sin(2 * math.pi / 5)) <= 1e-16
    assert abs((2 * P * P - 1) - math.cos(4 * math.pi / 5)) <= 1e-15
    assert abs(2 * P * Q - math.sin(4 * math.pi / 5)) <= 1e-15


def test_to_canonical_examples():
    assert as_tuple(to_canonical(ONE)) == (1.0, 1.0, 0.0, 1.0, 0.0)
    c = to_canonical(H1)
    want = (1.0, P, Q, 2 * P * P - 1, 2 * P * Q)
    assert max(abs(a - b) for a, b in zip(as_tuple(c), want)) <= 1e-16
    # the line idempotent projects onto the line alone
    c = to_canonical(E_PLUS)
    assert max(abs(a - b) for a, b in zip(as_tuple(c), (1, 0, 0, 0, 0))) <= 1e-15


def test_from_canonical_examples():
    assert max(abs(a - b) for a, b in
               zip(from_canonical(CanonicalForm(1, 1, 0, 1, 0)), ONE)) <= 1e-15
    got = from_canonical(CanonicalForm(1, 0, 0, 0, 0))
    assert max(abs(a - b) for a, b in zip(got, E_PLUS)) <= 1e-16


def test_roundtrip_both_ways():
    rng = np.random.default_rng(10)
    for _ in range(300):
        u = rand(rng)
        back = from_canonical(to_canonical(u))
        assert max(abs(a - b) for a, b in zip(back, u)) <= 1e-13 * max(1.0, abs(u))
        c = CanonicalForm(*rng.uniform(-5, 5, 5))
        again = to_canonical(from_canonical(c))
        dev = max(abs(a - b) for a, b in zip(as_tuple(again), as_tuple(c)))
        assert dev <= 1e-13 * max(1.0, max(abs(x) for x in as_tuple(c)))


def test_basis_idempotents_and_annihilations():
    eplus, e1, te1, e2, te2 = canonical_basis()
    assert max(abs(x - 0.2) for x in eplus) == 0.0
    zero = PentaComplex()
    cases = [
        (eplus, eplus, eplus), (e1, e1, e1), (e2, e2, e2),
        (te1, te1, -1.0 * e1), (te2, te2, -1.0 * e2),
        (e1, te1, te1), (e2, te2, te2),
        (eplus, e1, zero), (eplus, e2, zero), (eplus, te1, zero),
        (eplus, te2, zero), (e1, e2, zero), (e1, te2, zero),
        (e2, te1, zero), (te1, te2, zero),
    ]
    for a, b, want in cases:
        got = multiply(a, b)
        assert max(abs(x - y) for x, y in zip(got, want)) <= 1e-14
    s = add(add(eplus, e1), e2)
    assert max(abs(x - y) for x, y in zip(s, ONE)) <= 1e-14


def test_basis_moduli():
    assert abs(abs(E_PLUS) - 1 / math.sqrt(5)) <= 1e-15
    for e in (E1, E1_TILDE, E2, E2_TILDE):
        assert abs(abs(e) - math.sqrt(2 / 5)) <= 1e-15


def test_canonical_multiply_identity_and_plane_pattern():
    c = CanonicalForm(0.7, -1.2, 0.4, 2.0, -0.3)
    unit = CanonicalForm(1, 1, 0, 1, 0)
    assert as_tuple(canonical_multiply(c, unit)) == as_tuple(c)
    # plane-1 product of (1, 0) and (0, 1) is (0, 1): e1 * ~e1 = ~e1
    a = CanonicalForm(0, 1, 0, 0, 0)
    b = CanonicalForm(0, 0, 1, 0, 0)
    assert as_tuple(canonical_multiply(a, b)) == (0, 0, 1, 0, 0)


def test_canonical_multiply_matches_ring_product():
    rng = np.random.default_rng(11)
    for _ in range(500):
        u, v = rand(rng), rand(rng)
        got = canonical_multiply(to_canonical(u), to_canonical(v))
        want = to_canonical(multiply(u, v))
        scale = max(1.0, max(abs(x) for x in as_tuple(want)))
        assert max(abs(a - b) for a, b in
                   zip(as_tuple(got), as_tuple(want))) <= 1e-12 * scale


def test_canonical_product_beyond_the_float_range_is_overflow():
    big = CanonicalForm(1e200, 1, 1, 1, 1)
    with pytest.raises(Overflow):
        canonical_multiply(big, big)
    plane = CanonicalForm(1, 1e200, 1e200, 1, 1)
    with pytest.raises(Overflow):
        canonical_multiply(plane, plane)


@pytest.mark.parametrize("form", [
    CanonicalForm(1.7e308, 1.7e308, 1.7e308, -1.7e308, 1.7e308),
    CanonicalForm(math.inf, 0.0, 0.0, 0.0, 0.0),
    CanonicalForm(1.0, 0.0, math.nan, 0.0, 0.0),
], ids=["reassembly", "inf", "nan"])
def test_from_canonical_beyond_the_float_range_is_overflow(form):
    with pytest.raises(Overflow):
        from_canonical(form)


def test_from_canonical_components_are_floats():
    u = from_canonical(CanonicalForm(np.float64(1.0), 2, np.float64(0.5), -1, 0))
    assert all(type(x) is float for x in u.components)


def test_canonical_addition_is_componentwise():
    rng = np.random.default_rng(12)
    for _ in range(200):
        u, v = rand(rng), rand(rng)
        got = to_canonical(add(u, v))
        want = [a + b for a, b in zip(as_tuple(to_canonical(u)),
                                      as_tuple(to_canonical(v)))]
        scale = max(1.0, max(abs(x) for x in want))
        assert max(abs(a - b) for a, b in zip(as_tuple(got), want)) <= 1e-13 * scale


def test_rotation_matrix_is_orthonormal():
    T = rotation_matrix()
    assert np.abs(T @ T.T - np.eye(5)).max() <= 1e-14


def test_rotated_coords_unit_and_scaling():
    xi = rotated_coords(ONE)
    assert abs(xi.xiplus - 1 / math.sqrt(5)) <= 1e-15
    assert abs(xi.xi1 - math.sqrt(2 / 5)) <= 1e-15
    assert abs(xi.eta1) <= 1e-16
    assert abs(xi.xi2 - math.sqrt(2 / 5)) <= 1e-15
    assert abs(xi.eta2) <= 1e-16
    rng = np.random.default_rng(13)
    for _ in range(200):
        u = rand(rng)
        xi = rotated_coords(u)
        c = to_canonical(u)
        scale = max(1.0, abs(u))
        assert abs(c.vplus - math.sqrt(5) * xi.xiplus) <= 1e-13 * scale
        assert abs(c.v1 - math.sqrt(2.5) * xi.xi1) <= 1e-13 * scale
        assert abs(c.tv1 - math.sqrt(2.5) * xi.eta1) <= 1e-13 * scale
        assert abs(c.v2 - math.sqrt(2.5) * xi.xi2) <= 1e-13 * scale
        assert abs(c.tv2 - math.sqrt(2.5) * xi.eta2) <= 1e-13 * scale
        # orthonormal rows preserve the Euclidean norm
        norm = math.sqrt(xi.xiplus ** 2 + xi.xi1 ** 2 + xi.eta1 ** 2
                         + xi.xi2 ** 2 + xi.eta2 ** 2)
        assert abs(norm - abs(u)) <= 1e-13 * scale


def _from_canon_rows(w):
    """The per-row sum formula that _from_canon_comps unrolls."""
    vp, v1, tv1, v2, tv2 = w
    return tuple(_E_PLUS[i] * vp + _E1[i] * v1 + _TE1[i] * tv1 + _E2[i] * v2 + _TE2[i] * tv2
                 for i in range(5))


def test_from_canon_comps_is_bit_identical_to_row_formula():
    rng = np.random.default_rng(16)
    mags = 10.0 ** rng.uniform(-10, 10, (100_000, 5))
    signs = rng.choice([-1.0, 1.0], (100_000, 5))
    for w in (mags * signs).tolist():
        assert _from_canon_comps(w) == _from_canon_rows(w), w
    # the zero terms of row 0 are kept, so signed zeros match too
    for w in [(-0.0, -0.0, 0.0, -0.0, 0.0), (-0.0, -0.0, -0.0, -0.0, -0.0),
              (-1e-323, -0.0, 1.0, -1e-323, 2.0), (0.0, -0.0, -0.0, 0.0, -0.0)]:
        got, want = _from_canon_comps(w), _from_canon_rows(w)
        assert [math.copysign(1.0, x) for x in got] == [math.copysign(1.0, x) for x in want]
        assert got == want


def test_rotated_coords_match_rotation_matrix():
    T = rotation_matrix()
    rng = np.random.default_rng(17)
    for _ in range(2000):
        u = PentaComplex(*(rng.choice([-1.0, 1.0], 5) * 10.0 ** rng.uniform(-10, 10, 5)))
        xi = dataclasses.astuple(rotated_coords(u))
        want = T @ np.asarray(u.components)
        assert np.abs(np.asarray(xi) - want).max() <= 1e-15 * abs(u)
        assert abs(math.hypot(*xi) - abs(u)) <= 1e-15 * abs(u)


def test_irreducible_rep_unit():
    rep = irreducible_rep(ONE)
    assert rep.vplus == 1.0
    assert np.array_equal(rep.v1_block, np.eye(2))
    assert np.array_equal(rep.v2_block, np.eye(2))


def test_irreducible_rep_diagonalizes_circulant():
    rng = np.random.default_rng(14)
    T = rotation_matrix()
    for _ in range(200):
        u = rand(rng)
        B = T @ to_matrix(u) @ T.T
        rep = irreducible_rep(u)
        want = np.zeros((5, 5))
        want[0, 0] = rep.vplus
        want[1:3, 1:3] = rep.v1_block
        want[3:5, 3:5] = rep.v2_block
        assert np.abs(B - want).max() <= 1e-12 * max(1.0, abs(u))


def test_irreducible_rep_of_product_is_blockwise_product():
    rng = np.random.default_rng(15)
    for _ in range(200):
        u, v = rand(rng), rand(rng)
        ru, rv = irreducible_rep(u), irreducible_rep(v)
        rp = irreducible_rep(multiply(u, v))
        assert abs(rp.vplus - ru.vplus * rv.vplus) <= 1e-11 * max(1.0, abs(rp.vplus))
        for got, a, b in ((rp.v1_block, ru.v1_block, rv.v1_block),
                          (rp.v2_block, ru.v2_block, rv.v2_block)):
            prod = a @ b
            assert np.abs(got - prod).max() <= 1e-11 * max(1.0, np.abs(prod).max())


def test_canonical_form_serialization():
    c = CanonicalForm(1.5, -2.0, 0.25, 3.0, -0.125)
    assert CanonicalForm.from_dict(c.to_dict()) == c


def test_derived_tables_are_bit_identical_to_the_literal_tables():
    # the tables as they were written out by hand before being derived from
    # _to_canon_comps; every byte must agree
    from pentacomplex.canonical import P2, Q2
    from pentacomplex.contour import _CANON

    canon = np.array([
        [1.0] * 5,
        [1.0, P, P2, P2, P],
        [0.0, Q, Q2, -Q2, -Q],
        [1.0, P2, P, P, P2],
        [0.0, Q2, -Q, Q, -Q2],
    ])
    sq25 = math.sqrt(2.0 / 5.0)
    rot = np.array([
        (sq25 / math.sqrt(2.0),) * 5,
        (sq25 * 1.0, sq25 * P, sq25 * P2, sq25 * P2, sq25 * P),
        (0.0, sq25 * Q, sq25 * Q2, -sq25 * Q2, -sq25 * Q),
        (sq25 * 1.0, sq25 * P2, sq25 * P, sq25 * P, sq25 * P2),
        (0.0, sq25 * Q2, -sq25 * Q, sq25 * Q, -sq25 * Q2),
    ])
    p4, p24, q4, q24 = 0.4 * P, 0.4 * P2, 0.4 * Q, 0.4 * Q2
    basis = ((0.2, 0.2, 0.2, 0.2, 0.2),
             (0.4, p4, p24, p24, p4),
             (0.0, q4, q24, -q24, -q4),
             (0.4, p24, p4, p4, p24),
             (0.0, q24, -q4, q4, -q24))
    assert _CANON.tobytes() == canon.tobytes()
    assert rotation_matrix().tobytes() == rot.tobytes()
    got = (_E_PLUS, _E1, _TE1, _E2, _TE2)
    assert [[x.hex() for x in row] for row in got] == [[x.hex() for x in row] for row in basis]


def built_records():
    """The records the package builds in one step, each with the class it
    claims to be."""
    u = PentaComplex(1.3, -0.4, 0.25, 0.7, -0.9)
    v = PentaComplex(0.8, 0.1, -0.3, 0.2, 0.5)
    # v1*v1 overflows although v1*v1 - tv1*tv1 does not
    big = CanonicalForm(1.0, 1.35e154, 0.5e154, 1.0, 0.0)
    # every angle defined, and phi1, phi2 and psi1 undefined (both plane
    # radii vanish)
    full, flat = polar_form(u), polar_form(E_PLUS)
    assert not full.undefined and set(flat.undefined) == {"phi1", "phi2", "psi1"}
    return [
        (CanonicalForm, to_canonical(u)),
        (CanonicalForm, canonical_multiply(to_canonical(u), to_canonical(v))),
        # the product's halved route
        (CanonicalForm, canonical_multiply(big, big)),
        (RotatedCoords, rotated_coords(u)),
        (PolarForm, full),
        (PolarForm, flat),
    ]


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("cls, rec", built_records())
def test_built_records_are_the_constructors_records(cls, rec):
    names = [f.name for f in dataclasses.fields(cls)]
    want = cls(*(getattr(rec, name) for name in names))
    assert type(rec) is cls
    assert list(vars(rec)) == names and vars(rec) == vars(want)
    assert rec == want and want == rec
    assert repr(rec) == repr(want)
    assert dataclasses.astuple(rec) == dataclasses.astuple(want)
    # PolarForm holds a dict, so neither is hashable
    assert outcome(hash, rec) == outcome(hash, want)
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, name, 0.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, name)
    assert rec == want  # the refused writes changed nothing
    for other in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), copy.deepcopy(rec),
                  dataclasses.replace(rec)):
        assert type(other) is cls and other == rec and repr(other) == repr(rec)


NON_CIRCULANT = to_matrix(PentaComplex(1, 2, 3, 4, 5)) + np.eye(5, k=1)
DIVISOR_OF_ZERO = PentaComplex(1, 1, 1, 1, 1)  # both plane radii vanish
POINT = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)


@pytest.mark.parametrize("tol", [math.nan, -1e-9])
@pytest.mark.parametrize("call", [
    pytest.param(lambda tol: from_matrix(NON_CIRCULANT, tol), id="from_matrix"),
    pytest.param(lambda tol: inverse(DIVISOR_OF_ZERO, tol), id="inverse"),
    pytest.param(lambda tol: polar_form(POINT, tol), id="polar_form"),
    pytest.param(lambda tol: check_cr_relations(exp, POINT, tol=tol), id="check_cr_relations"),
    pytest.param(lambda tol: check_second_order(exp, POINT, tol=tol), id="check_second_order"),
])
def test_a_nan_or_negative_tol_raises(call, tol):
    # such a cutoff switched its test off: from_matrix returned the first
    # row or raised NotCirculant at any deviation, inverse raised Overflow,
    # polar_form left every angle undefined or defined, and the analytic
    # checks failed every group
    with pytest.raises(ValueError, match="tol must be None or >= 0"):
        call(tol)


def test_an_element_is_transformed_once(monkeypatch):
    # every module of the package that holds the transform calls the counter
    calls = []
    transform = pentacomplex.canonical._to_canon_comps

    def counted(c):
        calls.append(c)
        return transform(c)

    # imported before any is patched: contour's import runs the transform
    modules = [getattr(pentacomplex, name)
               for name in ("canonical", "geometry", "elementary", "analytic", "contour")]
    for module in modules:
        if hasattr(module, "_to_canon_comps"):
            monkeypatch.setattr(module, "_to_canon_comps", counted)
    w = multiply(PentaComplex(1.0, 0.3, -0.2, 0.1, 0.4), PentaComplex(0.8, -0.1, 0.2, 0.0, 0.3))
    to_canonical(w)
    inverse(w)
    log(w)
    polar_form(w)
    rotated_coords(w)
    amplitude(w)
    pow_real(w, 0.5)
    assert calls == [w.components]


def test_a_transform_beyond_the_float_range_is_not_kept():
    u = PentaComplex(1e308, 1e308, 1e308, 0, 0)
    for _ in range(2):
        with pytest.raises(Overflow):
            to_canonical(u)
        assert u._canon is None
