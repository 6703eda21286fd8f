"""The JSON readers of the records: Path, PentaPolynomial and CanonicalForm
read back everything their writers write, bit for bit, and refuse anything
else with a ValueError that names the field."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pentacomplex import CanonicalForm, Path, PentaComplex, PentaPolynomial

HUGE = "1" + "0" * 400  # an integer beyond the float range

# each reader with a document whose one slot {} is filled by the case's
# JSON text, and the name of that slot
TEMPLATES = {
    "path": (Path, '{{"vertices": [[1,0,0,0,0], [0,1,{},0,0]], "closed": true}}',
             "vertex 1 component 2"),
    "polynomial": (PentaPolynomial, '{{"coeffs": [[{},0,0,0,0]]}}', "coefficient 0 component 0"),
    "canonical": (CanonicalForm, '{{"vplus": {}, "v1": 1, "tv1": 0, "v2": 1, "tv2": 0}}',
                  "vplus"),
}
# a bad value in the slot, and the message's tail after the slot's name
BAD_NUMBERS = {
    "string": ('"1"', " must be a number, got '1'"),
    "true": ("true", " must be a number, got True"),
    "array": ("[1]", " must be a number, got [1]"),
    "NaN": ("NaN", " must be finite, got nan"),
    "Infinity": ("Infinity", " must be finite, got inf"),
    "-Infinity": ("-Infinity", " must be finite, got -inf"),
    "beyond the float range": (HUGE, " is beyond the floating-point range"),
}
PATH_SHAPE = 'path file must be {"vertices": [[5 reals], ...], "closed": true or false}'
POLY_SHAPE = 'polynomial payload must be {"coeffs": [[5 reals], ...]}'
CANON_SHAPE = "canonical input must be a JSON object with vplus, v1, tv1, v2 and tv2"
# whole documents: (reader, JSON text, message)
MALFORMED = {
    **{f"{name} {case}": (reader, template.format(text), slot + tail)
       for name, (reader, template, slot) in TEMPLATES.items()
       for case, (text, tail) in BAD_NUMBERS.items()},
    "path not an object": (Path, "[[1,0,0,0,0], [0,1,0,0,0]]", PATH_SHAPE),
    "path missing vertices": (Path, '{"closed": true}', PATH_SHAPE),
    "path vertices not an array": (Path, '{"vertices": 5}', PATH_SHAPE),
    "path vertex not an array": (Path, '{"vertices": [[1,0,0,0,0], 7]}',
                                 "vertex 1 must be a JSON array of 5 numbers, got 7"),
    "path 4-element vertex": (Path, '{"vertices": [[1,0,0,0,0], [0,1,0,0]]}',
                              "vertex 1 must be a JSON array of 5 numbers, got [0, 1, 0, 0]"),
    "path closed string": (Path, '{"vertices": [[1,0,0,0,0], [0,1,0,0,0]], "closed": "no"}',
                           "closed must be true or false, got 'no'"),
    "path one vertex": (Path, '{"vertices": [[1,0,0,0,0]]}',
                        "a path needs at least 2 vertices, got 1"),
    "polynomial not an object": (PentaPolynomial, "[[1,0,0,0,0]]", POLY_SHAPE),
    "polynomial missing coeffs": (PentaPolynomial, "{}", POLY_SHAPE),
    "polynomial coeffs not an array": (PentaPolynomial, '{"coeffs": 5}', POLY_SHAPE),
    "polynomial coeffs a string": (PentaPolynomial, '{"coeffs": "[[1,0,0,0,0]]"}', POLY_SHAPE),
    "polynomial 4-element coefficient": (PentaPolynomial, '{"coeffs": [[1,0,0,0]]}',
                                         "coefficient 0 must be a JSON array of 5 numbers, "
                                         "got [1, 0, 0, 0]"),
    "polynomial no coefficient": (PentaPolynomial, '{"coeffs": []}',
                                  "polynomial needs at least one coefficient (degree >= 1)"),
    "canonical not an object": (CanonicalForm, "[1, 1, 0, 1, 0]", CANON_SHAPE),
    "canonical missing tv2": (CanonicalForm, '{"vplus": 1, "v1": 1, "tv1": 0, "v2": 1}',
                              CANON_SHAPE),
}


@pytest.mark.parametrize("reader,text,message", MALFORMED.values(), ids=MALFORMED.keys())
def test_reader_refuses_malformed_data_naming_the_field(reader, text, message):
    with pytest.raises(ValueError) as info:
        reader.from_dict(json.loads(text))
    assert info.type is ValueError and str(info.value) == message


def test_template_documents_are_read():
    # with a good number in the slot, every template is a valid document
    for reader, template, _ in TEMPLATES.values():
        assert isinstance(reader.from_dict(json.loads(template.format("-0.5"))), reader)


# magnitudes 1e-300..1e300, zero and the subnormals, either sign
_component = st.builds(lambda m, negative: -m if negative else m,
                       st.one_of(st.floats(1e-300, 1e300),
                                 st.floats(0.0, 2.2250738585072014e-308, allow_subnormal=True)),
                       st.booleans())
_components = st.tuples(*[_component] * 5)
# vertices pairwise distinct (-0.0 equals 0.0), so no segment has length 0
_paths = st.builds(lambda verts, closed: Path(tuple(PentaComplex(*c) for c in verts), closed),
                   st.lists(_components, min_size=2, max_size=6,
                            unique_by=lambda c: tuple(x + 0.0 for x in c)),
                   st.booleans())
_polynomials = st.builds(lambda coeffs: PentaPolynomial(tuple(PentaComplex(*c) for c in coeffs)),
                         st.lists(_components, min_size=1, max_size=4))
_canonical_forms = _components.map(lambda c: CanonicalForm(*c))


@settings(derandomize=True, deadline=None, database=None, max_examples=300)
@given(st.one_of(_paths, _polynomials, _canonical_forms))
def test_json_text_round_trip_is_bit_exact(record):
    back = type(record).from_dict(json.loads(json.dumps(record.to_dict())))
    # repr tells -0.0 from 0.0 and shows every bit of a float
    assert back == record and repr(back.to_dict()) == repr(record.to_dict())
