import json
from fractions import Fraction

import pytest

from candyfix.engine import certify, compute_tables
from candyfix.render import (
    EngineMismatchError,
    TablesFormatError,
    certificate_to_json,
    certificate_to_text,
    format_fraction,
    tables_from_json,
    tables_from_text,
    tables_to_json,
    tables_to_text,
)


def test_tables_json_round_trip():
    for k in (1, 2):
        tables = compute_tables(k)
        blob = json.dumps(tables_to_json(tables), sort_keys=True)
        assert tables_from_json(json.loads(blob)) == tables


def test_tables_json_schema():
    obj = tables_to_json(compute_tables(1))
    assert set(obj) == {"k", "engine", "pI", "pIII", "pS"}
    assert obj["engine"] == {"kappa": 3, "n": 2, "p": ["1/2", "1/2"]}
    assert obj["pI"] == {"num": 5, "exp": 3}
    assert obj["pS"][0][1] == {"num": 3, "exp": 2}
    assert len(obj["pS"]) == 3 and all(len(row) == 3 for row in obj["pS"])


def test_tables_text_round_trip():
    for k in (1, 2):
        tables = compute_tables(k)
        assert tables_from_text(tables_to_text(tables)) == tables


def test_tables_text_other_engine_refused():
    text = tables_to_text(compute_tables(1)).replace("kappa=3", "kappa=4")
    with pytest.raises(EngineMismatchError, match="kappa=4"):
        tables_from_text(text)


@pytest.mark.parametrize("old, new, match", [
    ("denom  2^2", "denom  2^68719476736", "exponent 68719476736 outside"),
    ("denom  2^2", "denom  2^-1", "exponent -1 outside"),
    ("denom  2^2", "denom  4", "bad denominator line"),
    ("p_unstable = 5/2^3", "p_unstable = 5/2^68719476736", "exponent 68719476736 outside"),
    ("p_triple = 1/2^1", "p_triple = 1/2^99", "exponent 99 outside"),
    ("m=1    3    1", "m=7    3    1", "row 1 starts 'm=7'"),
    ("m=1    3    1", "m=1    x    1", "bad tables text"),
    ("k = 1", "k = 0", "k must be >= 1"),
])
def test_tables_text_doctored_refused(old, new, match):
    # every exponent is bounded by 2k^2+3k before anything shifts by it
    text = tables_to_text(compute_tables(1))
    assert old in text
    with pytest.raises(TablesFormatError, match=match):
        tables_from_text(text.replace(old, new, 1))


def test_k1_text_shows_reduced_entries():
    text = tables_to_text(compute_tables(1))
    assert "1/2" in text and "3/4" in text
    assert "engine = kappa=3,n=2,p=1/2,1/2" in text.splitlines()
    # column denominators of the numerator block
    assert "2^2" in text and "2^1" in text and "2^0" in text


def test_certificate_json_contract():
    cert = certify(2)
    obj = certificate_to_json(cert)
    assert obj["k"] == 2
    assert obj["term_III"] == "29/192"
    assert obj["term_I"] == "61/192"
    assert obj["term_gap"] == "19/24"
    assert obj["c"] == "121/96"
    assert obj["contraction"] is False
    assert obj["pI"] == {"num": 61, "exp": 7}


def test_certificate_text_contraction_line():
    assert "CONTRACTION" not in certificate_to_text(certify(1))


def test_format_fraction():
    assert format_fraction(Fraction(5, 4)) == "5/4"
    assert format_fraction(Fraction(2)) == "2"
