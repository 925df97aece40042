"""Ring documents: the one-pass reader against the reader it replaced.

``ReferenceRing`` and ``reference_parse_ring`` keep the constructor's cleaning
loop and ``serialize.parse_ring`` as they were before both read each
structure constant in one pass, and ``reference_ring_to_json`` keeps the
emitter that sorted every combination.  Generated documents must get the
same verdict, the same message and the same JSON from both, except for the
one rule the new reader adds: a pair listed twice in the same order with
different combinations is rejected where the second listing is read.
"""

import copy
import importlib
import json
import random
from pathlib import Path
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pervchow.chow import ChowRingPresentation, builtin, check_basis_size
from pervchow.cli import run
from pervchow.serialize import (
    MAX_RING_CONSTANTS,
    InputError,
    _check_dim,
    _int,
    _reading,
    parse_ring,
    ring_to_json,
)

# -- the reference: the reader before the one-pass rewrite -------------------


class ReferenceRing(ChowRingPresentation):
    """The constructor as it was: a cleaning comprehension, then a landing loop."""

    def __init__(self, name, dim, basis, products, hyperplane, degree_functional, relations=None):
        self.name = str(name)
        self.dim = int(dim)
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        levels = tuple(tuple(str(s) for s in level) for level in basis)
        if len(levels) != self.dim + 1:
            raise ValueError(f"need basis lists for codimensions 0..{self.dim}")
        if len(levels[0]) != 1:
            raise ValueError("codimension 0 must be spanned by a single unit symbol")
        self.basis = levels
        codim = {}
        for k, level in enumerate(levels):
            if not level:
                raise ValueError(f"codimension {k} has no basis symbols")
            for sym in level:
                if sym in codim:
                    raise ValueError(f"duplicate basis symbol {sym!r}")
                codim[sym] = k
        self._codim = codim
        self.unit = levels[0][0]

        table = {}
        rows = {sym: {} for sym in codim}
        for (a, b), value in products.items():
            if a not in codim or b not in codim:
                raise ValueError(f"product ({a!r}, {b!r}) uses unknown symbols")
            total = codim[a] + codim[b]
            cleaned = {str(s): int(c) for s, c in value.items() if int(c) != 0}
            for sym in cleaned:
                if codim.get(sym) != total:
                    raise ValueError(f"product ({a!r}, {b!r}) lands in codim {total}, got {sym!r}")
            key = (a, b) if a <= b else (b, a)
            if key in table and table[key] != cleaned:
                raise ValueError(f"inconsistent products for pair {key}")
            table[key] = cleaned
            if cleaned:
                rows[a][b] = rows[b][a] = cleaned
        unit, unit_row = self.unit, rows[self.unit]
        for sym in codim:
            key = (unit, sym) if unit <= sym else (sym, unit)
            expected = {sym: 1}
            if key in table and table[key] != expected:
                raise ValueError(f"unit product for {sym!r} must be {sym!r} itself")
            table[key] = unit_row[sym] = rows[sym][unit] = expected
        self._table = table
        self._rows = rows

        hyper = tuple(int(c) for c in hyperplane)
        width = len(levels[1]) if self.dim >= 1 else 0
        if len(hyper) != width:
            raise ValueError(f"hyperplane vector must have length {width}")
        self.hyperplane = hyper
        deg = tuple(int(c) for c in degree_functional)
        if len(deg) != len(levels[self.dim]):
            raise ValueError(f"degree functional must have length {len(levels[self.dim])}")
        self.degree_functional = deg

        rels = {}
        for k, given_rows in (relations or {}).items():
            k = int(k)
            if not 0 <= k <= self.dim:
                raise ValueError(f"relations declared for impossible codimension {k}")
            packed = tuple(tuple(int(x) for x in row) for row in given_rows)
            for row in packed:
                if len(row) != len(levels[k]):
                    raise ValueError(f"relation {list(row)} does not match codim {k} basis")
            if packed:
                rels[k] = packed
        self.relations = rels

        self._check_associativity()
        self._check_relations()


def reference_products(data):
    """The old products comprehension: last listing wins, zeros kept."""
    return {
        (str(entry["a"]), str(entry["b"])): {str(s): _int(c) for s, c in entry["value"].items()}
        for entry in data.get("products", [])
    }


def reference_parse_ring(data):
    """``serialize.parse_ring`` for documents, as it was, building a :class:`ReferenceRing`."""
    with _reading("ring presentation"):
        name = str(data.get("name", "user"))
        check_basis_size(sum(len(level) for level in data.get("basis", ())), name)
        products = reference_products(data)
        constants = sum(1 for value in products.values() for c in value.values() if c)
        if constants > MAX_RING_CONSTANTS:
            raise InputError(
                f"ring {name!r} has {constants} nonzero structure constants; the limit is {MAX_RING_CONSTANTS}"
            )
        relations = {
            _int(k): [list(map(_int, row)) for row in rows]
            for k, rows in data.get("relations", {}).items()
        }
        for k, rows in relations.items():
            _check_dim(len(rows), f"ring codimension {k}", "relations")
        return ReferenceRing(
            name,
            _int(data["dim"]),
            data["basis"],
            products,
            [_int(c) for c in data.get("hyperplane", [])],
            [_int(c) for c in data["degree"]],
            relations or None,
        )


def reference_ring_to_json(ring):
    table = {(a, b): value for a, row in ring._rows.items() for b, value in row.items() if a <= b}
    products = [
        {"a": a, "b": b, "value": dict(sorted(value.items()))}
        for (a, b), value in sorted(table.items())
        if a != ring.unit and b != ring.unit
    ]
    doc = {
        "name": ring.name,
        "dim": ring.dim,
        "basis": [list(level) for level in ring.basis],
        "products": products,
        "hyperplane": list(ring.hyperplane),
        "degree": list(ring.degree_functional),
    }
    if ring.relations:
        doc["relations"] = {str(k): [list(row) for row in rows] for k, rows in sorted(ring.relations.items())}
    return doc


# -- outcomes ------------------------------------------------------------------


def in_fill_order(ring):
    """The row index, each row's products in the order the constructor filed them."""
    return [(a, list(row.items())) for a, row in ring._rows.items()]


def outcome(parse, to_json, doc):
    """``("rejected", message)``, or the emitted JSON text with the rows in fill order."""
    try:
        ring = parse(copy.deepcopy(doc))
    except InputError as exc:
        return ("rejected", str(exc))
    return ("accepted", json.dumps(to_json(ring)), in_fill_order(ring))


def same_order_conflict(doc):
    """The message the new reader gives a same-order conflict, or None.

    Entries are read in order; a coefficient the old reader rejects ends the
    scan, since both readers report it first.
    """
    seen = {}
    for entry in doc.get("products", []):
        try:
            value = {str(s): _int(c) for s, c in entry["value"].items()}
        except ValueError:
            return None
        pair = (str(entry["a"]), str(entry["b"]))
        cleaned = {s: c for s, c in value.items() if c}
        if seen.setdefault(pair, cleaned) != cleaned:
            return f"bad ring presentation: inconsistent products for pair {tuple(sorted(pair))}"
    return None


def expected_outcome(doc):
    message = same_order_conflict(doc)
    if message is not None:
        return ("rejected", message)
    return outcome(reference_parse_ring, reference_ring_to_json, doc)


def constructor_outcome(cls, doc):
    """A constructor's verdict on the document's products, passed as a mapping
    with the coefficients as ``serialize._int`` reads them (a digit string as its integer)."""
    try:
        products = reference_products(doc)
    except ValueError:
        return None  # a bad coefficient: documents stop before the constructor
    try:
        ring = cls(doc["name"], doc["dim"], doc["basis"], products, doc["hyperplane"], doc["degree"])
    except ValueError as exc:
        return ("rejected", str(exc))
    return ("accepted", in_fill_order(ring))


# -- generated documents -----------------------------------------------------

# a dim-2 ring whose products have two terms each, listed out of sorted order
TWO_TERMS = {
    "name": "two-terms",
    "dim": 2,
    "basis": [["1"], ["b", "a"], ["q", "p"]],
    "products": [
        {"a": "b", "b": "a", "value": {"q": 1, "p": 2}},
        {"a": "a", "b": "a", "value": {"q": -1, "p": 1}},
    ],
    "hyperplane": [1, 1],
    "degree": [1, 1],
}
BASES = ["P1", "P2", "P3", "P4", "quadric", "product(P1,P1)", "product(P1,P2)", "product(quadric,P1)", TWO_TERMS]
BAD_COEFFICIENTS = ["x", 1.5, True, None, [1], "", "1.0"]


def mutated_document(rng):
    """A built-in's document with up to five edits, valid or not.

    The edits add zero coefficients, reverse pairs, list a pair again in
    either order (equal or not), add explicit unit products (right or
    wrong), move a product to the wrong codimension, name unknown symbols,
    write coefficients as digit strings or as non-integers, scale a
    coefficient or drop a product.
    """
    base = rng.choice(BASES)
    doc = ring_to_json(builtin(base)) if isinstance(base, str) else copy.deepcopy(base)
    basis, entries = doc["basis"], doc["products"]
    unit = basis[0][0]
    symbols = [sym for level in basis for sym in level]
    for _ in range(rng.randint(0, 5)):
        if not entries:
            entries.append({"a": rng.choice(symbols), "b": rng.choice(symbols), "value": {}})
        entry = rng.choice(entries)
        value = entry["value"]
        kind = rng.randrange(13)
        if kind == 0:
            value[rng.choice(symbols + ["zz"])] = 0
        elif kind == 1:
            entry["a"], entry["b"] = entry["b"], entry["a"]
        elif kind in (2, 3):  # the pair again, reversed (kind 2) or in the same order
            again = {"a": entry["b"], "b": entry["a"]} if kind == 2 else {"a": entry["a"], "b": entry["b"]}
            again["value"] = dict(value)
            if value and rng.random() < 0.5:
                sym = rng.choice(list(value))
                again["value"][sym] = str(value[sym]) if rng.random() < 0.5 else 7
            elif rng.random() < 0.5:
                again["value"][rng.choice(symbols)] = 0
            entries.insert(rng.randint(0, len(entries)), again)
        elif kind == 4:
            sym = rng.choice(symbols)
            target = sym if rng.random() < 0.7 else rng.choice(symbols)
            pair = [unit, sym]
            rng.shuffle(pair)
            entries.append({"a": pair[0], "b": pair[1], "value": {target: rng.choice([1, 1, 2, "1"])}})
        elif kind == 5:
            value[rng.choice(symbols)] = 1
        elif kind == 6:
            entry[rng.choice("ab")] = "zz"
        elif kind == 7:
            value["zz"] = 1
        elif kind == 8 and value:
            value[rng.choice(list(value))] = rng.choice(BAD_COEFFICIENTS)
        elif kind == 9 and value:
            sym = rng.choice(list(value))
            value[sym] = str(value[sym])
        elif kind == 10 and value:
            sym = rng.choice(list(value))
            value[sym] = 2 * value[sym] if isinstance(value[sym], int) else 2
        elif kind == 11:
            entries.remove(entry)
        elif kind == 12:
            rng.shuffle(entries)
    return doc


def kind_of(result):
    """A verdict's class, for the batch's coverage check."""
    if result[0] == "accepted":
        return "accepted"
    message = result[1]
    for needle in ("unknown symbols", "lands in codim", "inconsistent", "unit product", "not associative"):
        if needle in message:
            return needle
    return "bad coefficient" if "integer" in message or "int()" in message else message


def assert_matches_reference(doc):
    got = outcome(parse_ring, ring_to_json, doc)
    assert got == expected_outcome(doc), doc
    assert constructor_outcome(ChowRingPresentation, doc) == constructor_outcome(ReferenceRing, doc), doc
    if got[0] == "accepted":
        ring = reference_parse_ring(copy.deepcopy(doc))
        assert json.dumps(ring_to_json(ring)) == json.dumps(reference_ring_to_json(ring))
    return got


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_documents_read_as_the_reference_reads_them(rng):
    assert_matches_reference(mutated_document(rng))


def test_documents_read_as_the_reference_reads_them_seeded_batch():
    rng = random.Random(20136)
    docs = [mutated_document(rng) for _ in range(400)]
    kinds = {kind_of(assert_matches_reference(doc)) for doc in docs}
    assert kinds == {
        "accepted", "unknown symbols", "lands in codim", "inconsistent", "unit product",
        "not associative", "bad coefficient",
    }
    # both inconsistency rules are exercised: the constructor's and the reader's
    assert any(same_order_conflict(doc) for doc in docs)
    assert any(
        "inconsistent" in outcome(reference_parse_ring, reference_ring_to_json, doc)[1]
        for doc in docs
        if same_order_conflict(doc) is None
    )


def test_the_constructor_takes_no_digit_string_coefficient():
    # a document's "1" is read by serialize._int; the constructor itself takes integers only
    basis, digits = [["1"], ["h"], ["p"]], {("h", "h"): {"p": "1"}}
    read = parse_ring(p2_with(("h", "h", {"p": "1"})))
    assert read == ChowRingPresentation("P2", 2, basis, {("h", "h"): {"p": 1}}, [1], [1])
    with pytest.raises(TypeError, match="^'str' object cannot be interpreted as an integer$"):
        ChowRingPresentation("P2", 2, basis, digits, [1], [1])
    assert ReferenceRing("P2", 2, basis, digits, [1], [1])._rows["h"]["h"] == {"p": 1}  # the old constructor parsed it


def ring_build_names(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    return importlib.import_module("workloads").RING_NAMES


def test_ring_build_names_round_trip_to_identical_json(monkeypatch):
    names = ring_build_names(monkeypatch)
    assert len(names) == 63
    for name in names:
        ring = builtin(name)
        text = json.dumps(ring_to_json(ring))
        assert text == json.dumps(reference_ring_to_json(ring)), name
        doc = json.loads(text)
        again = parse_ring(doc)
        assert json.dumps(ring_to_json(again)) == text, name
        reference = reference_parse_ring(doc)
        assert again == reference and in_fill_order(again) == in_fill_order(reference), name
        assert again == ring and hash(again) == hash(ring), name


def test_a_ring_with_relations_round_trips_to_identical_json():
    doc = {"dim": 1, "basis": [["1"], ["a", "b"]], "hyperplane": [1, 0], "degree": [1, 1],
           "relations": {"1": [[2, -2]]}}
    ring = parse_ring(doc)
    text = json.dumps(ring_to_json(ring))
    assert json.loads(text)["relations"] == {"1": [[2, -2]]}
    again = parse_ring(json.loads(text))
    assert again == ring and hash(again) == hash(ring)
    assert json.dumps(ring_to_json(again)) == text


def test_a_product_symbol_that_is_not_a_string_is_refused_not_renamed():
    # a JSON key is always a string, but a mapping handed to the reader keeps its keys as they are
    doc = {"dim": 2, "basis": [["1"], ["h"], ["p"]], "products": [{"a": "h", "b": "h", "value": {2: 1}}],
           "hyperplane": [1], "degree": [1]}
    with pytest.raises(InputError, match=r"^bad ring presentation: symbol 2 in product \('h', 'h'\) must be a string$"):
        parse_ring(doc)
    doc["products"][0]["value"] = {"p": 1}
    assert parse_ring(doc).products() == (("h", "h", {"p": 1}),)


def test_combinations_of_several_terms_are_emitted_sorted():
    doc = ring_to_json(parse_ring(TWO_TERMS))
    assert doc["products"] == [
        {"a": "a", "b": "a", "value": {"p": 1, "q": -1}},
        {"a": "a", "b": "b", "value": {"p": 2, "q": 1}},
    ]
    assert json.dumps(doc) == json.dumps(reference_ring_to_json(reference_parse_ring(TWO_TERMS)))


# -- the duplicate rule --------------------------------------------------------

P2 = {"dim": 2, "basis": [["1"], ["h"], ["p"]], "hyperplane": [1], "degree": [1]}


# dim 2 with two codim-1 symbols and one point class: a*a = a*b = b*b = p
TWO_SYMBOLS = {
    "dim": 2, "basis": [["1"], ["a", "b"], ["p"]], "hyperplane": [1, 1], "degree": [1],
    "products": [{"a": x, "b": y, "value": {"p": 1}} for x, y in (("a", "a"), ("a", "b"), ("b", "b"))],
}


def p2_with(*products):
    return dict(P2, products=[{"a": a, "b": b, "value": value} for a, b, value in products])


class TestDuplicatePairs:
    def test_conflicting_same_order_duplicate_is_rejected(self):
        doc = p2_with(("h", "h", {"p": 1}), ("h", "h", {"p": 2}))
        with pytest.raises(InputError, match=r"^bad ring presentation: inconsistent products for pair \('h', 'h'\)$"):
            parse_ring(doc)
        # the old reader let the last listing win
        assert reference_parse_ring(doc)._rows["h"]["h"] == {"p": 2}

    def test_message_matches_the_reversed_order_rejection(self):
        doc = dict(P2, basis=[["1"], ["a", "b"], ["p"]], hyperplane=[1, 0], degree=[1])
        same = dict(doc, products=[{"a": "b", "b": "a", "value": {"p": 1}}, {"a": "b", "b": "a", "value": {"p": 2}}])
        reversed_ = dict(doc, products=[{"a": "a", "b": "b", "value": {"p": 1}}, {"a": "b", "b": "a", "value": {"p": 2}}])
        messages = []
        for document in (same, reversed_):
            with pytest.raises(InputError) as exc:
                parse_ring(document)
            messages.append(str(exc.value))
        assert messages == ["bad ring presentation: inconsistent products for pair ('a', 'b')"] * 2

    def test_cli_rejects_the_conflict(self):
        text = json.dumps(p2_with(("h", "h", {"p": 1}), ("h", "h", {"p": 2})))
        report = run(["validate", "--ring", text])
        assert report.exit_code == 1
        assert [(v.check, v.ok) for v in report.verdicts] == [("valid-ring", False)]
        assert "inconsistent products for pair ('h', 'h')" in report.verdicts[0].explanation
        assert run(["groups", "--cone", json.dumps({"base": json.loads(text)}), "--r", "1", "--p", "0"]).exit_code == 2

    @pytest.mark.parametrize(
        "again",
        [{"p": 1}, {"p": "1"}, {"p": 1, "h": 0}],
        ids=["same", "digit-string", "zero-padded"],
    )
    def test_equal_duplicates_are_accepted(self, again):
        ring = parse_ring(p2_with(("h", "h", {"p": 1}), ("h", "h", again)))
        assert ring == parse_ring(p2_with(("h", "h", {"p": 1})))

    def test_the_constant_limit_counts_each_listed_pair_once(self):
        doc = ring_to_json(builtin("P127"))
        assert sum(len(entry["value"]) for entry in doc["products"]) == 4032
        # every product listed twice: 8064 listed constants, 4032 distinct
        doc["products"] = doc["products"] + copy.deepcopy(doc["products"])
        assert parse_ring(doc) == builtin("P127")
        # a pair listed in both orders counts twice, as it did: 65 reversed listings pass the limit
        doc["products"] += [{"a": f"h^{k}", "b": "h", "value": {f"h^{k + 1}": 1}} for k in range(2, 67)]
        with pytest.raises(InputError, match=f"4097 nonzero structure constants; the limit is {MAX_RING_CONSTANTS}"):
            parse_ring(doc)
        with pytest.raises(InputError, match="4097 nonzero structure constants"):
            reference_parse_ring(doc)


# -- shape rules -------------------------------------------------------------


SHAPES = [
    (dict(P2, basis="1hp"), "basis must be a list of symbol lists, got str"),
    (dict(P2, basis={"1": [], "h": [], "p": []}), "basis must be a list of symbol lists, got dict"),
    (dict(P2, basis=[["1"], "h", ["p"]]), "basis level 1 must be a list of symbols, got str"),
    (dict(P2, basis=[["1"], [["h"]], ["p"]]), "basis symbol ['h'] in codim 1 must be a string"),
    (dict(P2, basis=[["1"], [7], ["p"]]), "basis symbol 7 in codim 1 must be a string"),
    (dict(P2, products={"h": {"p": 1}}), "products must be a list of objects, got dict"),
    (dict(P2, products=["h"]), "products entry 0 must be an object, got str"),
    (p2_with(("h", "h", [1])), "value of product ('h', 'h') must be an object, got list"),
    (p2_with(("h", "h", "p")), "value of product ('h', 'h') must be an object, got str"),
    # the factor 1 must not be read as the unit symbol "1"
    (p2_with((1, "h", {"h": 1})), "factor 1 of products entry 0 must be a string"),
    (p2_with(("h", ["h"], {"p": 1})), "factor ['h'] of products entry 0 must be a string"),
    # a digit string is not a list of digits: "11" is not (1, 1)
    (dict(TWO_SYMBOLS, hyperplane="11"), "hyperplane must be a list of integers, got str"),
    (dict(TWO_SYMBOLS, degree="1"), "degree must be a list of integers, got str"),
    (dict(P2, hyperplane=5), "hyperplane must be a list of integers, got int"),
    (dict(P2, degree={"p": 1}), "degree must be a list of integers, got dict"),
    (dict(P2, relations=[1]), "relations must be an object keyed by codimension, got list"),
    (dict(P2, relations={"1": 2}), "relations in codim 1 must be a list of integer rows, got int"),
    (dict(P2, relations={"1": ["2"]}), "relation row 0 in codim 1 must be a list of integers, got str"),
]
SHAPE_IDS = [
    "string-basis", "dict-basis", "string-level", "list-symbol", "int-symbol",
    "products-object", "products-entry-string", "value-list", "value-string",
    "int-factor", "list-factor", "string-hyperplane", "string-degree", "int-hyperplane", "dict-degree",
    "relations-list", "relations-level-int", "relations-row-string",
]


class TestShapes:
    @pytest.mark.parametrize("doc, message", SHAPES, ids=SHAPE_IDS)
    def test_wrong_shape_names_the_field(self, doc, message):
        with pytest.raises(InputError) as exc:
            parse_ring(doc)
        assert str(exc.value) == f"bad ring presentation: {message}"

    @pytest.mark.parametrize("doc, message", SHAPES, ids=SHAPE_IDS)
    def test_commands_exit_2_and_validate_fails(self, doc, message):
        text = json.dumps(doc)
        report = run(["groups", "--cone", json.dumps({"base": doc}), "--r", "1", "--p", "0"])
        assert report.exit_code == 2 and message in report.error
        report = run(["validate", "--ring", text])
        assert report.exit_code == 1
        assert [(v.check, v.ok) for v in report.verdicts] == [("valid-ring", False)]
        assert message in report.verdicts[0].explanation

    def test_digit_strings_still_read_as_entries(self):
        doc = dict(TWO_SYMBOLS, hyperplane=["1", 1], degree=("1",), relations={"1": [("2", "-2")]})
        ring = parse_ring(doc)
        assert ring.hyperplane == (1, 1) and ring.degree_functional == (1,)
        assert ring.relations == {1: ((2, -2),)}

    def test_tuples_and_mappings_still_read(self):
        doc = {
            "dim": 2,
            "basis": (("1",), ("h",), ("h^2",)),
            "products": ({"a": "h", "b": "h", "value": MappingProxyType({"h^2": 1})},),
            "hyperplane": [1],
            "degree": [1],
        }
        assert parse_ring(MappingProxyType(doc)) == builtin("P2")


# -- equality: one sorted listing of the structure constants ----------------------

# P3 listed another way: pairs reversed and out of order, zero entries and
# zero coefficients, and correct unit products spelled out
P3_RELISTED = {
    "name": "mine",
    "dim": 3,
    "basis": [["1"], ["h"], ["h^2"], ["h^3"]],
    "products": [
        {"a": "h^2", "b": "h", "value": {"h^3": 1, "h^2": 0}},
        {"a": "h", "b": "h^3", "value": {}},
        {"a": "h^2", "b": "h^2", "value": {}},
        {"a": "h", "b": "h", "value": {"h^2": "1"}},
        {"a": "1", "b": "h^2", "value": {"h^2": 1}},
        {"a": "h^3", "b": "1", "value": {"h^3": 1}},
        {"a": "1", "b": "1", "value": {"1": 1}},
    ],
    "hyperplane": [1],
    "degree": [1],
}
TORSION = {"dim": 1, "basis": [["1"], ["a"]], "hyperplane": [1], "degree": [0], "relations": {"1": [[2]]}}


class TestEquality:
    def test_a_relisted_document_equals_the_builtin(self):
        ring, builtin_ring = parse_ring(P3_RELISTED), builtin("P3")
        assert ring.name != builtin_ring.name
        assert ring == builtin_ring and hash(ring) == hash(builtin_ring)
        assert ring.products() == builtin_ring.products() == (("h", "h", {"h^2": 1}), ("h", "h^2", {"h^3": 1}))
        assert parse_ring(dict(TORSION, relations={"1": [["2"]]}, name="other")) == parse_ring(TORSION)

    @pytest.mark.parametrize(
        "base, change",
        [
            (P3_RELISTED, dict(products=[{"a": "h", "b": "h", "value": {"h^2": 1}},
                                         {"a": "h", "b": "h^2", "value": {"h^3": 2}}])),
            (TWO_TERMS, dict(products=[{"a": "b", "b": "a", "value": {"q": 1, "p": 2}},
                                       {"a": "a", "b": "a", "value": {"q": -1, "p": 2}}])),
            (P3_RELISTED, dict(hyperplane=[2])),
            (P3_RELISTED, dict(degree=[2])),
            (TORSION, dict(relations={"1": [[3]]})),
            (TORSION, dict(relations={})),
        ],
        ids=["constant", "multi-term-coefficient", "hyperplane", "degree", "relation", "no-relation"],
    )
    def test_a_changed_ring_is_unequal(self, base, change):
        assert parse_ring(dict(base, **change)) != parse_ring(base)

    def test_several_terms_are_listed_sorted(self):
        ring = parse_ring(TWO_TERMS)
        listing = ring.products()
        assert listing == (("a", "a", {"p": 1, "q": -1}), ("a", "b", {"p": 2, "q": 1}))
        # the listing hands out the stored combinations, not copies
        assert all(combo is ring._rows[a][b] for a, b, combo in listing)

    def test_the_order_of_terms_is_not_compared(self):
        reordered = dict(TWO_TERMS, products=[{"a": "b", "b": "a", "value": {"p": 2, "q": 1}},
                                              {"a": "a", "b": "a", "value": {"p": 1, "q": -1}}])
        ring, again = parse_ring(TWO_TERMS), parse_ring(reordered)
        assert list(ring._rows["a"]["a"]) == ["q", "p"] and list(again._rows["a"]["a"]) == ["p", "q"]
        assert ring == again and hash(ring) == hash(again)
