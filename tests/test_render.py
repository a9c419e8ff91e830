import hashlib
import json

from candyfix.engine import certify, compute_tables
from candyfix.render import (
    certificate_to_json,
    certificate_to_text,
    tables_to_json,
    tables_to_text,
)


def test_tables_json_schema():
    obj = tables_to_json(compute_tables(1))
    assert set(obj) == {"k", "engine", "pI", "pIII", "pS"}
    assert obj["engine"] == {"kappa": 3, "n": 2, "p": ["1/2", "1/2"]}
    assert obj["pI"] == {"num": 5, "exp": 3}
    assert obj["pS"][0][1] == {"num": 3, "exp": 2}
    assert len(obj["pS"]) == 3 and all(len(row) == 3 for row in obj["pS"])


# sha256 of tables_to_text: the exact values a tables.txt carries, since no
# command parses the text form back
PINNED_TEXT = {
    1: "8402a7862f4aab25100e39aa98203aa151fab10ee9c522da7d6824747e235d11",
    2: "80bb72e3054f4a82b5a73765f3d39938b30df7f19910faaa06c40c4fe3aa4529",
    3: "c319deed332957048313fb41bda01e7c5fac31da6d3b7d6e6c7ca12bacca0b22",
    4: "9f2da47f33060a6f9ff2d6a60d59ff2d50e2873afb8399e4edb69959fd1b5a5b",
    5: "f170698d0a53827f4bce6140d7b805d9eadc8592a63bb3e6b792c8030b10521c",
}


def test_tables_text_pinned(tables_k4, tables_k5):
    for k, digest in PINNED_TEXT.items():
        tables = {4: tables_k4, 5: tables_k5}.get(k) or compute_tables(k)
        assert hashlib.sha256(tables_to_text(tables).encode()).hexdigest() == digest, k


# sha256 of the tables JSON as enumerate writes it (before the manifest id):
# no command reads tables.json back, so its bytes are pinned instead
PINNED_JSON = {
    1: "440aa5af7ac4de93e6d0dbb3f99783f5be9c4018acaa74f61a376f5396599840",
    2: "4662c8bc96e1f4c59f92a87bffc887d99c162547741b265d574e2388b812d61a",
    3: "1cc538d1de17d281e6a4fe8e010350a41662ee96cfd41a7d4375cc6bd0f68fa9",
    4: "ea430c130189e76ee5d8506d246e9d5bd9b8e7743cd6d859eb7c8d21a95eb5a2",
    5: "57a4e4abbbcba2a088b945aad54ff9c13e164834fea375ceea8e4a83884deea4",
}


def test_tables_json_pinned(tables_k4, tables_k5):
    for k, digest in PINNED_JSON.items():
        tables = {4: tables_k4, 5: tables_k5}.get(k) or compute_tables(k)
        blob = json.dumps(tables_to_json(tables), indent=1, sort_keys=True)
        assert hashlib.sha256(blob.encode()).hexdigest() == digest, k


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


def test_certificate_text_contraction_line(certificate_k4):
    assert "CONTRACTION" not in certificate_to_text(certify(1))
    lines = certificate_to_text(certificate_k4).splitlines()
    assert "c = 200344049/201326592" in lines and lines[-1] == "CONTRACTION"
