import json

import pytest

from gradelie.scalars import Q
from gradelie.matrices import Mat
from gradelie.lie import LieAlgebra
from gradelie.grading import SubgradedAlgebra, GradingError
from gradelie.structures import MatSubspace
from gradelie.documents import (
    DocumentError,
    document_from,
    document_to_dict,
    dumps_document,
    instance_digest,
    loads_document,
    materialize,
    parse_document,
)
from gradelie.examples import EXAMPLE_NAMES, build_example


def test_round_trip_all_examples():
    for name in EXAMPLE_NAMES:
        doc = build_example(name)
        text = dumps_document(doc)
        again = loads_document(text)
        assert dumps_document(again) == text
        assert instance_digest(again) == instance_digest(doc)


def test_materialize_dispatch():
    assert isinstance(materialize(build_example("sl2")), LieAlgebra)
    assert isinstance(materialize(build_example("pauli")), SubgradedAlgebra)
    assert isinstance(materialize(build_example("e2")), MatSubspace)
    assert isinstance(materialize(build_example("jordan_upper")), MatSubspace)


def test_document_from_round_trip():
    algebra = materialize(build_example("heisenberg"))
    doc = document_from(algebra)
    again = materialize(doc)
    assert again.span == algebra.span
    s = materialize(build_example("pauli"))
    doc2 = document_from(s)
    s2 = materialize(doc2)
    assert s2.algebra.span == s.algebra.span
    assert {g: c.dim for g, c in s2.components.items()} == {
        g: c.dim for g, c in s.components.items()
    }


def test_parse_errors_have_positions():
    with pytest.raises(DocumentError, match=r"\$\.ambient_dim"):
        parse_document({"structure": "lie"})
    with pytest.raises(DocumentError, match=r"\$\.structure"):
        parse_document({"ambient_dim": 2, "structure": "ring", "generators": []})
    with pytest.raises(DocumentError, match=r"\$\.generators\[0\]\[1\]"):
        parse_document(
            {
                "ambient_dim": 2,
                "structure": "lie",
                "generators": [[["1", "0"], ["0"]]],
            }
        )
    with pytest.raises(DocumentError, match="floating literal"):
        parse_document(
            {"ambient_dim": 1, "structure": "lie", "generators": [[[0.25]]]}
        )
    with pytest.raises(DocumentError, match="lowest terms"):
        parse_document(
            {"ambient_dim": 1, "structure": "lie", "generators": [[["2/4"]]]}
        )
    with pytest.raises(DocumentError, match="line 1"):
        loads_document("{not json")


def test_exactly_one_payload():
    with pytest.raises(DocumentError, match="exactly one"):
        parse_document({"ambient_dim": 1, "structure": "lie"})
    with pytest.raises(DocumentError, match="exactly one"):
        parse_document(
            {
                "ambient_dim": 1,
                "structure": "lie",
                "generators": [],
                "components": {},
            }
        )


def test_components_require_group():
    with pytest.raises(DocumentError, match=r"\$\.group"):
        parse_document(
            {
                "ambient_dim": 1,
                "structure": "subgraded",
                "components": {"0": [[["1"]]]},
            }
        )


def test_component_key_validation():
    base = {
        "ambient_dim": 1,
        "structure": "subgraded",
        "group": {"moduli": [2]},
    }
    with pytest.raises(DocumentError, match="comma-joined"):
        parse_document({**base, "components": {"x": [[["1"]]]}})
    with pytest.raises(DocumentError, match="rank"):
        parse_document({**base, "components": {"0,1": [[["1"]]]}})
    doc = parse_document({**base, "components": {"3": [[["1"]]]}})
    assert (1,) in doc.components  # residues are canonicalized


def test_float_mode():
    doc = parse_document(
        {
            "ambient_dim": 1,
            "structure": "lie",
            "mode": "float",
            "generators": [[[0.5]]],
        }
    )
    assert doc.generators[0].entry(0, 0) == Q("1/2")


def test_fixed_key_order():
    doc = build_example("pauli")
    data = document_to_dict(doc)
    assert list(data.keys()) == ["ambient_dim", "structure", "mode", "group", "components"]
    keys = list(data["components"].keys())
    assert keys == sorted(keys)


def test_subgraded_with_generators_gets_zero_degree():
    doc = parse_document(
        {
            "ambient_dim": 2,
            "structure": "subgraded",
            "group": {"moduli": [2]},
            "generators": [[["0", "1"], ["0", "0"]]],
        }
    )
    s = materialize(doc)
    assert s.component((0,)).dim == 1


def test_materialize_bad_grading_raises():
    doc = parse_document(
        {
            "ambient_dim": 2,
            "structure": "subgraded",
            "group": {"moduli": [3]},
            "components": {
                "0": [[["0", "1"], ["0", "0"]]],
                "1": [[["1", "0"], ["0", "-1"]]],
            },
        }
    )
    with pytest.raises(GradingError):
        materialize(doc)


def test_components_keyed_by_the_given_degrees_only():
    doc = loads_document(
        json.dumps(
            {
                "ambient_dim": 2,
                "structure": "subgraded",
                "group": {"moduli": [200000]},
                "components": {"1": [[["0", "1"], ["0", "0"]]]},
            }
        )
    )
    s = materialize(doc)
    assert list(s.components) == [(1,)]
    assert s.component((2,)).dim == 0 and s.support == [(1,)]
