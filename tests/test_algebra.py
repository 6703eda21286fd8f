import copy
import math
import pickle

import numpy as np
import pytest

from pentacomplex import (H1, H2, H3, H4, ONE, ZERO, NonInvertible,
                          NotCirculant, Overflow, PentaComplex, add, basis_product,
                          cosexp_power, exp_basis, from_matrix, g5_closed,
                          g5_closed_radical, g5_series, inverse, multiply,
                          plane_circle, project, project_point, to_matrix)
from pentacomplex import algebra
from pentacomplex.canonical import E_PLUS, to_canonical

# the ten products of the cyclic basis table, transcribed independently
BASIS_TABLE = {(1, 1): 2, (2, 2): 4, (3, 3): 1, (4, 4): 3, (1, 2): 3,
               (1, 3): 4, (1, 4): 0, (2, 3): 0, (2, 4): 1, (3, 4): 2}


def rand(rng, lo=-10.0, hi=10.0):
    return PentaComplex(*rng.uniform(lo, hi, 5))


def test_basis_table_via_multiply():
    for (j, k), expect in BASIS_TABLE.items():
        got = multiply(PentaComplex.basis(j), PentaComplex.basis(k))
        assert got == PentaComplex.basis(expect), (j, k)


def test_basis_product_total_on_domain():
    for j in range(5):
        assert basis_product(0, j) == j  # h0 is the identity
        for k in range(5):
            assert basis_product(j, k) == (j + k) % 5


def test_basis_product_rejects_bad_indices():
    with pytest.raises(ValueError):
        basis_product(5, 0)
    with pytest.raises(ValueError):
        basis_product(0, -1)
    for k in (-1, 5):
        with pytest.raises(ValueError, match="basis index must be 0..4"):
            PentaComplex.basis(k)


U = PentaComplex(0.3, -0.1, 0.2, 0.05, -0.15)
LOOP = plane_circle(ZERO, 1, 1.0, vertices=8)
# every public function that takes an index: (call with index k, last index)
INDEXED = {
    "PentaComplex.basis": (PentaComplex.basis, 4),
    "basis_product": (lambda k: basis_product(k, 2), 4),
    "project": (lambda k: project(LOOP, k), 2),
    "plane_circle": (lambda k: plane_circle(ZERO, k, 1.0, vertices=8), 2),
    "project_point": (lambda k: project_point(U, k), 2),
    "g5_series": (lambda k: g5_series(k, 0.3), 4),
    "g5_closed": (lambda k: g5_closed(k, 0.3), 4),
    "g5_closed_radical": (lambda k: g5_closed_radical(k, 0.3), 4),
    "exp_basis": (lambda k: exp_basis(k, 0.3), 4),
    "cosexp_power": (lambda k: cosexp_power(k, 0.3, 2), 4),
}


@pytest.mark.parametrize("site", INDEXED)
def test_every_index_takes_one_rule(site):
    f, last = INDEXED[site]
    # a whole number in range, as an int, an integral float or a numpy int
    assert f(float(last)) == f(np.int64(last)) == f(last)
    for k in (1.5, last + 1, "1"):
        with pytest.raises(ValueError, match=r"index must be \d"):
            f(k)


def test_add_identities():
    rng = np.random.default_rng(0)
    u = rand(rng)
    assert add(u, ZERO) == u
    assert add(u, -u) == ZERO
    assert add(PentaComplex(1, 0, 0, 0, 0), PentaComplex(0, 1, 0, 0, 0)) == \
        PentaComplex(1, 1, 0, 0, 0)


def test_multiply_examples():
    assert multiply(H1, H4) == ONE
    rng = np.random.default_rng(1)
    u = rand(rng)
    assert multiply(u, ONE) == u
    # (h1+h2)(h3+h4) expanded term by term with the basis table:
    # h1h3 + h1h4 + h2h3 + h2h4 = h4 + 1 + 1 + h1
    got = multiply(H1 + H2, H3 + H4)
    assert got == PentaComplex(2, 1, 0, 0, 1)


def test_commutativity_is_bit_exact():
    rng = np.random.default_rng(2)
    for _ in range(300):
        u = rand(rng)
        v = rand(rng)
        assert multiply(u, v).components == multiply(v, u).components


def test_associativity_and_distributivity():
    rng = np.random.default_rng(3)
    for _ in range(300):
        u, v, w = rand(rng), rand(rng), rand(rng)
        tol = 1e-12 * (1.0 + abs(u) * abs(v) * abs(w))
        lhs = multiply(multiply(u, v), w)
        rhs = multiply(u, multiply(v, w))
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= tol
        lhs = multiply(u, v + w)
        rhs = multiply(u, v) + multiply(u, w)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= tol


def test_to_matrix_layout():
    assert np.array_equal(to_matrix(ONE), np.eye(5))
    m = to_matrix(H1)
    assert m[0].tolist() == [0, 1, 0, 0, 0]
    # each row is the previous one cyclically shifted right
    u = PentaComplex(10, 11, 12, 13, 14)
    m = to_matrix(u)
    assert m[1].tolist() == [14, 10, 11, 12, 13]
    assert m[4].tolist() == [11, 12, 13, 14, 10]


def test_matrix_homomorphism_against_dense_product():
    rng = np.random.default_rng(4)
    for _ in range(300):
        u, v = rand(rng), rand(rng)
        dense = to_matrix(u) @ to_matrix(v)
        got = to_matrix(multiply(u, v))
        assert np.linalg.norm(got - dense) <= 1e-12 * max(1.0, np.linalg.norm(dense))


def test_from_matrix_roundtrip_and_validation():
    assert from_matrix(np.eye(5)) == ONE
    assert from_matrix(to_matrix(H3)) == H3
    rng = np.random.default_rng(5)
    u = rand(rng)
    assert from_matrix(to_matrix(u)) == u
    bad = to_matrix(u)
    bad[2, 3] += 1e-6
    with pytest.raises(NotCirculant):
        from_matrix(bad)
    with pytest.raises(ValueError):
        from_matrix(np.eye(4))


def test_from_matrix_cutoff_is_relative_to_the_largest_entry():
    rng = np.random.default_rng(14)
    # matrix entries of about 1e6: rounding in the product is far above 1e-12
    for _ in range(200):
        u, v = rand(rng, -1e3, 1e3), rand(rng, -1e3, 1e3)
        w = from_matrix(to_matrix(u) @ to_matrix(v))
        assert max(abs(a - b) for a, b in zip(w, multiply(u, v))) <= 1e-9
    # a plainly non-circulant matrix is not accepted for being small
    with pytest.raises(NotCirculant):
        from_matrix(np.arange(25.0).reshape(5, 5) * 1e-14)
    assert from_matrix(np.zeros((5, 5))) == ZERO
    # an explicit tol stays absolute
    assert from_matrix(np.arange(25.0).reshape(5, 5) * 1e-14, tol=1e-12) == \
        PentaComplex(*np.arange(5.0) * 1e-14)


@pytest.mark.parametrize("make", [
    lambda x: PentaComplex(1.0, 2.0, x),
    lambda x: PentaComplex.from_components([1.0, 2.0, x, 0.0, 0.0]),
    lambda x: PentaComplex.from_list([1.0, 2.0, x, 0.0, 0.0]),
    lambda x: PentaComplex.scalar(x),
], ids=["init", "from_components", "from_list", "scalar"])
def test_integer_component_beyond_the_float_range_is_overflow(make):
    for x in (10**400, -10**400):
        with pytest.raises(Overflow, match=r"component x[02] exceeds the floating-point range"):
            make(x)


def test_inverse_examples():
    assert max(abs(a - b) for a, b in zip(inverse(ONE), ONE)) <= 1e-15
    assert max(abs(a - b) for a, b in zip(inverse(H1), H4)) <= 1e-15
    with pytest.raises(NonInvertible):
        inverse(E_PLUS)  # both plane radii vanish
    with pytest.raises(NonInvertible):
        inverse(ZERO)


def test_inverse_random_roundtrip():
    rng = np.random.default_rng(6)
    done = 0
    while done < 300:
        u = rand(rng)
        try:
            vinv = inverse(u)
        except NonInvertible:
            continue
        prod = multiply(u, vinv)
        assert max(abs(a - b) for a, b in zip(prod, ONE)) <= 1e-10
        done += 1


def test_construction_rejects_non_finite():
    with pytest.raises(ValueError):
        PentaComplex(math.nan, 0, 0, 0, 0)
    with pytest.raises(ValueError):
        PentaComplex(0, math.inf, 0, 0, 0)
    with pytest.raises(ValueError):
        PentaComplex.from_components([1, 2, 3])


def test_multiply_overflow_is_typed():
    big = PentaComplex(1e200, 0, 0, 0, 0)
    with pytest.raises(Overflow):
        multiply(big, big)
    with pytest.raises(Overflow):
        big * PentaComplex(0, 0, 0, 0, 1e200)


@pytest.mark.parametrize("op", [
    pytest.param(lambda: PentaComplex(1.7e308) + PentaComplex(1.7e308), id="add"),
    pytest.param(lambda: 1.7e308 + PentaComplex(1.7e308), id="radd"),
    pytest.param(lambda: PentaComplex(-1.7e308) - PentaComplex(1.7e308), id="sub"),
    pytest.param(lambda: -1.7e308 - PentaComplex(1.7e308), id="rsub"),
    pytest.param(lambda: PentaComplex(1e200) * 1e200, id="mul"),
    pytest.param(lambda: 1e200 * PentaComplex(1e200), id="rmul"),
    pytest.param(lambda: PentaComplex(1e300) / 1e-300, id="truediv"),
])
def test_operator_overflow_is_typed(op):
    with pytest.raises(Overflow):
        op()


@pytest.mark.parametrize("zero", [0, 0.0, -0.0, np.float64(0)], ids=repr)
def test_division_by_a_zero_scalar_is_non_invertible(zero):
    # a zero scalar is a divisor of zero, like PentaComplex()
    with pytest.raises(NonInvertible):
        PentaComplex(1, 2, 3, 4, 5) / zero
    with pytest.raises(NonInvertible):
        PentaComplex(1, 2, 3, 4, 5) / PentaComplex()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("k", range(5))
def test_construction_names_the_non_finite_component(k, bad):
    comps = [1.0, 2.0, 3.0, 4.0, 5.0]
    comps[k] = bad
    with pytest.raises(ValueError) as info:
        PentaComplex(*comps)
    assert not isinstance(info.value, Overflow)
    assert str(info.value) == f"component x{k} is not finite: {bad!r}"


def test_construction_names_the_first_non_finite_component():
    with pytest.raises(ValueError, match="component x1 is not finite: inf"):
        PentaComplex(0, math.inf, math.nan, 0, -math.inf)


def test_construction_accepts_numbers_and_numeric_strings():
    u = PentaComplex(1, np.float64(2.5), np.int64(3), np.float32(0.5), "-1e3")
    assert u.components == (1.0, 2.5, 3.0, 0.5, -1000.0)
    assert all(type(x) is float for x in u.components)
    assert PentaComplex().components == (0.0,) * 5
    with pytest.raises(ValueError):
        PentaComplex("one")
    assert PentaComplex(True).components == (1.0,) + (0.0,) * 4


@pytest.mark.parametrize("bad", [None, [1], 1j, "x"])
def test_construction_names_a_component_that_is_no_real_number(bad):
    with pytest.raises(ValueError) as info:
        PentaComplex(bad)
    assert str(info.value) == f"component x0 must be a real number, got {bad!r}"
    with pytest.raises(ValueError, match=r"^component x3 must be a real number, got None$"):
        PentaComplex(1.0, "2", 3, None, "x")


def test_immutability():
    u = PentaComplex(1, 2, 3, 4, 5)
    with pytest.raises(AttributeError):
        u.x0 = 7.0


def test_every_component_is_immutable():
    u = PentaComplex(1, 2, 3, 4, 5)
    for name in ("x0", "x1", "x2", "x3", "x4", "components", "_canon"):
        with pytest.raises(AttributeError):
            setattr(u, name, 7.0)
        with pytest.raises(AttributeError):
            delattr(u, name)
    with pytest.raises(AttributeError):
        u.extra = 1.0
    assert u.components == (1.0, 2.0, 3.0, 4.0, 5.0)


def test_multiply_re_raises_an_operand_without_components():
    # the batch sniffer hands on only a batch's product: any other operand
    # without components raises the AttributeError of its own lookup
    bad = object()
    for u, v in ((bad, ONE), (ONE, bad)):
        with pytest.raises(AttributeError, match="'components'") as exc:
            multiply(u, v)
        assert exc.value.obj is bad


def test_operators_and_serialization():
    u = PentaComplex(1, 2, 3, 4, 5)
    assert (-u).components == (-1, -2, -3, -4, -5)
    assert (u - u) == ZERO
    assert (2.0 * u).components == (2, 4, 6, 8, 10)
    assert (u / 2.0).components == (0.5, 1, 1.5, 2, 2.5)
    assert abs(PentaComplex(3, 4, 0, 0, 0)) == 5.0
    assert PentaComplex.from_list(u.to_list()) == u
    assert u[3] == 4.0 and list(u) == [1, 2, 3, 4, 5]
    assert str(ONE) == "1 + 0 h1 + 0 h2 + 0 h3 + 0 h4"
    # ring division is multiplication by the inverse
    q = u / H1
    assert max(abs(a - b) for a, b in zip(multiply(q, H1), u)) <= 1e-12


def test_pickle_and_copy_round_trip():
    plain = PentaComplex(1.5, -0.0, 3e-300, -4e300, 5.0)
    transformed = PentaComplex(*plain.components)
    to_canonical(transformed)  # keeps its canonical coordinates in its slot
    assert transformed._canon is not None
    for u in (plain, transformed):
        copies = [pickle.loads(pickle.dumps(u, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(u), copy.deepcopy(u), copy.deepcopy([u])[0]]
        for v in copies:
            assert type(v) is PentaComplex
            assert bits(v) == bits(u)
            assert v == u and hash(v) == hash(u) and repr(v) == repr(u)
            with pytest.raises(AttributeError):
                v.x0 = 7.0


def bits(u):
    """The components' bit patterns (tells -0.0 from 0.0) after checking
    that each is exactly a float."""
    assert all(type(x) is float for x in u.components), u.components
    return np.array(u.components).view(np.int64).tolist()


def operator_results(u, v, s):
    """Every arithmetic operator with an element or the scalar s on each side."""
    return [u + v, u - v, u * v, u / v, -u, abs(u) * u,
            u + s, s + u, u - s, s - u, u * s, s * u, u / s, s / u]


SCALARS = [2, -3, 0.5, np.float64(2.5), np.int64(3), np.float32(0.25),
           np.int8(-2), True]


@pytest.mark.parametrize("s", SCALARS, ids=lambda s: f"{type(s).__name__}({s})")
def test_operator_components_are_exactly_float(s):
    rng = np.random.default_rng(7)
    for _ in range(20):
        u, v = rand(rng), rand(rng)
        for r in operator_results(u, v, s):
            # bit-identical to the validated public constructor's element
            assert bits(r) == bits(PentaComplex(*r.components))
    assert bits(s / u) == bits(inverse(u) * float(s))


def test_multiply_is_bit_identical_to_the_convolution_with_signed_zeros():
    rng = np.random.default_rng(11)
    signed = [0.0, -0.0, 1.0, -1.0, 1e-300, -1e300]
    for _ in range(500):
        a = tuple(rng.choice(signed, 5).tolist()) if rng.random() < 0.3 \
            else tuple(rng.uniform(-10, 10, 5).tolist())
        b = tuple(rng.uniform(-10, 10, 5).tolist())
        a0, a1, a2, a3, a4 = a
        b0, b1, b2, b3, b4 = b
        want = PentaComplex(
            a0 * b0 + (a1 * b4 + a4 * b1) + (a2 * b3 + a3 * b2),
            (a0 * b1 + a1 * b0) + (a2 * b4 + a4 * b2) + a3 * b3,
            (a0 * b2 + a2 * b0) + a1 * b1 + (a3 * b4 + a4 * b3),
            (a0 * b3 + a3 * b0) + (a1 * b2 + a2 * b1) + a4 * b4,
            (a0 * b4 + a4 * b0) + (a1 * b3 + a3 * b1) + a2 * b2)
        got = multiply(PentaComplex(*a), PentaComplex(*b))
        assert bits(got) == bits(want)
        assert bits(multiply(PentaComplex(*b), PentaComplex(*a))) == bits(want)


HUGE = math.comb(1040, 520)  # about 1e311, beyond the float range


@pytest.mark.parametrize("op", [
    pytest.param(lambda u: HUGE * u, id="rmul"),
    pytest.param(lambda u: u * HUGE, id="mul"),
    pytest.param(lambda u: u + HUGE, id="add"),
    pytest.param(lambda u: HUGE + u, id="radd"),
    pytest.param(lambda u: u - HUGE, id="sub"),
    pytest.param(lambda u: HUGE - u, id="rsub"),
    pytest.param(lambda u: u / HUGE, id="truediv"),
    pytest.param(lambda u: HUGE / u, id="rtruediv"),
])
def test_int_scalar_beyond_the_float_range_is_overflow(op):
    with pytest.raises(Overflow):
        op(PentaComplex(1e-300))


def test_non_real_operands_are_refused():
    u = PentaComplex(1, 2, 3, 4, 5)
    for other in (1j, "2", None, [1.0]):
        with pytest.raises(TypeError):
            u * other
        with pytest.raises(TypeError):
            other + u
        with pytest.raises(TypeError):
            u - other
        with pytest.raises(TypeError):
            u / other
        with pytest.raises(TypeError):
            other / u
    # equality with anything but an element is False, not an error
    assert (u == 3) is False


@pytest.mark.parametrize("comps", [
    (1e308, 1e308, 0.0, 0.0, 0.0),
    (1.7e308, 1.7e308, 1.7e308, 1.7e308, 1.7e308),
    (-1.7e308, -1.7e308, 0.0, -1.7e308, 5e-324),
])
def test_trusted_constructor_keeps_finite_components_whose_sum_overflows(comps):
    # the sum of the components leaves the float range, so the cheap test
    # sees NaN and the per-component test decides
    u = algebra._result(*comps)
    assert u.components == comps and type(u) is PentaComplex


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("k", range(5))
def test_trusted_constructor_rejects_a_non_finite_component(k, bad):
    for rest in (1.0, 1e308, -1e308):
        comps = [rest] * 5
        comps[k] = bad
        with pytest.raises(Overflow, match="result exceeds the floating-point range"):
            algebra._result(*comps)
    with pytest.raises(Overflow):
        algebra._result(math.inf, -math.inf, 0.0, 0.0, 0.0)
