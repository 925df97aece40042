"""The value classes: slots, immutability, field equality and the field repr."""

import copy
import pickle

import pytest

from pervchow import abgroup, chow, cli, cocycles, cones, cycles, perversity, strata
from pervchow._value import Value


def instances():
    """One instance of each value class, by class name."""
    v = strata.isolated_vertex(1)
    line = cycles.CyclePattern(v, 1, {1: None}, "L")
    ring = chow.builtin("P1")
    cone = cones.ConeVariety(ring)
    z2 = abgroup.FpAbelianGroup(1, ((2,),))
    return {
        "Verdict": cli.Verdict("snf-contract", True, "ok"),
        "Report": cli.Report("snf"),
        "Command": cli.Command(print, "Print.", {"name": ("command name", None, {})}),
        "GeneralizedBound": perversity.GeneralizedBound([0, 2]),
        "StratumSpec": v.strata[0],
        "Stratification": v,
        "SmithForm": abgroup.SmithForm(((1,),), ((2,),), ((1,),)),
        "FpAbelianGroup": z2,
        "GroupMap": abgroup.GroupMap(abgroup.FpAbelianGroup(1), z2, ((1,),)),
        "ChowClass": ring.make(1, (1,)),
        "CyclePattern": line,
        "JointPattern": cycles.JointPattern(line, line, {1: None}, None),
        "FamilyCertificate": cycles.FamilyCertificate(line, (("0", line),), (line, line), True),
        "CocyclePattern": cocycles.CocyclePattern(v, 1, 1, {1: 1}),
        "ConeVariety": cone,
        "ConeClass": cone.cls(1, 0, (1,)),
        "ZobelCatalog": cones.ZobelCatalog(cone, {}, {}, {}, {}),
    }


# the repr each instance had when the classes were generated dataclasses
SPEC = "StratumSpec(index=1, codim_lower_bound=1, label='vertex')"
VERTEX = f"Stratification(ambient_dim=1, strata=({SPEC},), model='vertex')"
LINE = f"CyclePattern(strata={VERTEX}, r=1, incidence={{1: None}}, label='L')"
CONE = "ConeVariety(base=ChowRingPresentation('P1', dim=1))"
REPRS = {
    "Verdict": "Verdict(check='snf-contract', ok=True, explanation='ok')",
    "Report": "Report(command='snf', verdicts=[], values={}, error=None, pretty=False)",
    "Command": (
        "Command(handler=<built-in function print>, description='Print.', inputs={'name': ('command name', None, {})})"
    ),
    "GeneralizedBound": "GeneralizedBound(entries=(0, 2))",
    "StratumSpec": SPEC,
    "Stratification": VERTEX,
    "SmithForm": "SmithForm(U=((1,),), S=((2,),), V=((1,),))",
    "FpAbelianGroup": "FpAbelianGroup(rank=1, relations=((2,),))",
    "GroupMap": (
        "GroupMap(source=FpAbelianGroup(rank=1, relations=()), target=FpAbelianGroup(rank=1, relations=((2,),)), "
        "matrix=((1,),))"
    ),
    "ChowClass": "ChowClass(ring=ChowRingPresentation('P1', dim=1), codim=1, coeffs=(1,))",
    "CyclePattern": LINE,
    "JointPattern": f"JointPattern(a={LINE}, b={LINE}, joint={{1: None}}, total=None)",
    "FamilyCertificate": (
        f"FamilyCertificate(generic_fiber={LINE}, special_fibers=(('0', {LINE}),), endpoints=({LINE}, {LINE}), "
        "flat_over_line=True, effective_variant=None)"
    ),
    "CocyclePattern": f"CocyclePattern(strata={VERTEX}, t=1, target_dim=1, excess={{1: 1}})",
    "ConeVariety": CONE,
    "ConeClass": (
        f"ConeClass(cone={CONE}, r=1, p=0, payload=ChowClass(ring=ChowRingPresentation('P1', dim=1), codim=0, "
        "coeffs=(1,)))"
    ),
    "ZobelCatalog": (
        f"ZobelCatalog(cone={CONE}, classes={{}}, expected_groups={{}}, expected_comparisons={{}}, "
        "expected_pairings={})"
    ),
}


@pytest.mark.parametrize("name", sorted(REPRS))
def test_repr_names_every_field(name):
    assert repr(instances()[name]) == REPRS[name]


@pytest.mark.parametrize("name", sorted(REPRS))
def test_frozen_fields_cannot_be_assigned(name):
    value = instances()[name]
    assert isinstance(value, Value) and not hasattr(value, "__dict__")
    for field in type(value).__slots__:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(value, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(value, field)


def test_verdict_and_report_fields_cannot_be_assigned():
    report = cli.Report("snf")
    report.verdicts.append(cli.Verdict("check", True, "ok"))
    with pytest.raises(AttributeError, match="cannot assign to field 'ok'"):
        report.verdicts[0].ok = False
    with pytest.raises(AttributeError, match="cannot assign to field 'error'"):
        report.error = "stopped"
    assert report.ok and report.exit_code == 0 and report.error is None
    assert cli.Report("snf").verdicts == [] and cli.Report("snf").verdicts is not cli.Report("snf").verdicts
    with pytest.raises(TypeError, match="unhashable"):
        hash(report)


def test_a_perversity_is_a_checked_bound():
    p = perversity.Perversity([0, 1])
    assert type(p) is perversity.GeneralizedBound
    assert p == perversity.GeneralizedBound([0, 1]) and hash(p) == hash(perversity.GeneralizedBound([0, 1]))


@pytest.mark.parametrize("name", sorted(REPRS))
def test_equal_by_fields_across_instances_and_copies(name):
    value, again = instances()[name], instances()[name]
    assert value == again and not value != again
    assert value != instances()["Verdict" if name != "Verdict" else "Report"]
    assert copy.copy(value) == value and copy.deepcopy(value) == value
    if name not in ("Command", "ZobelCatalog"):  # a mapping proxy and a function field do not pickle
        assert pickle.loads(pickle.dumps(value)) == value


def test_model_and_label_take_no_part_in_equality_or_hash():
    generic = strata.Stratification(1, (strata.StratumSpec(1, 1, "vertex"),))
    vertex = strata.isolated_vertex(1)
    assert generic.model != vertex.model
    assert generic == vertex and hash(generic) == hash(vertex)
    assert cycles.CyclePattern(generic, 1, {1: 0}, "A") == cycles.CyclePattern(vertex, 1, {1: 0}, "B")
    assert cycles.CyclePattern(vertex, 1, {1: 0}) != cycles.CyclePattern(vertex, 1, {1: 1})
    assert hash(cycles.CyclePattern(generic, 1, {1: 0}, "A")) == hash(cycles.CyclePattern(vertex, 1, {1: 0}, "B"))


def test_patterns_hash_follows_equality_whatever_the_dict_order():
    # the incidence, joint and excess tables are dicts, hashed as their items
    v = strata.isolated_vertex(3)
    forward = cycles.CyclePattern(v, 2, {1: 2, 2: 1, 3: None})
    backward = cycles.CyclePattern(v, 2, {3: None, 2: 1, 1: 2})
    assert list(forward.incidence) != list(backward.incidence)
    other = cycles.CyclePattern(v, 2, {1: 2, 2: 0, 3: None})
    pairs = [
        (forward, backward),
        (cycles.JointPattern(forward, forward, {1: 1, 2: 0, 3: None}, 1),
         cycles.JointPattern(backward, backward, {3: None, 2: 0, 1: 1}, 1)),
        (cycles.FamilyCertificate(forward, (("0", other),), (forward, other), True),
         cycles.FamilyCertificate(backward, (("0", other),), (backward, other), True)),
        (cocycles.CocyclePattern(v, 2, 2, {1: 2, 2: 1, 3: 0}), cocycles.CocyclePattern(v, 2, 2, {3: 0, 2: 1, 1: 2})),
    ]
    for left, right in pairs:
        assert left == right and hash(left) == hash(right), type(left).__name__
    assert len({forward, backward, other}) == 2


def test_zobel_catalog_is_unhashable_on_purpose():
    with pytest.raises(TypeError, match="unhashable type: 'ZobelCatalog'"):
        hash(instances()["ZobelCatalog"])


def test_hash_follows_equality():
    values = instances()
    for name in ("GeneralizedBound", "StratumSpec", "Stratification", "FpAbelianGroup", "GroupMap",
                 "ChowClass", "ConeVariety"):
        assert hash(values[name]) == hash(instances()[name]), name
    p2 = chow.builtin("P2")
    classes = {p2.make(1, (1,)), chow.builtin("P2").make(1, (1,)), p2.make(1, (2,))}
    assert len(classes) == 2


# -- one integer rule and one text rule -----------------------------------------

V1 = strata.isolated_vertex(1)
P1, P2 = chow.builtin("P1"), chow.builtin("P2")
CONE_P2 = cones.ConeVariety(P2)
LINE_THROUGH = cycles.CyclePattern(V1, 1, {1: 1})


def ring(name="r", dim=1, hyperplane=(1,), degree=(1,), relations=None):
    return chow.ChowRingPresentation(name, dim, [["1"], ["h"]], {}, hyperplane, degree, relations)


# every integer a layer stores or indexes with, as a call that is valid when ``x`` is 1
INTEGER_SITES = {
    "bound entry": lambda x: perversity.GeneralizedBound([0, x]),
    "stratum index": lambda x: strata.StratumSpec(x, 2),
    "stratum codim": lambda x: strata.StratumSpec(1, x),
    "ambient dim": lambda x: strata.Stratification(x, ()),
    "fiber dim": lambda x: strata.product_with_fiber(V1, x),
    "ring dim": lambda x: ring(dim=x),
    "hyperplane": lambda x: ring(hyperplane=[x]),
    "degree": lambda x: ring(degree=[x]),
    "product coefficient": lambda x: chow.ChowRingPresentation(
        "r", 2, [["1"], ["h"], ["p"]], {("h", "h"): {"p": x}}, [1], [1]),
    "relation codim": lambda x: ring(degree=[0], relations={x: [[2]]}),
    "relation entry": lambda x: ring(degree=[0], relations={1: [[x]]}),
    "class coefficient": lambda x: P1.make(1, [x]),
    "class coefficient by symbol": lambda x: P1.make(1, {"h": x}),
    "class codim": lambda x: chow.ChowClass(P1, x, (1,)),
    "class scalar": lambda x: x * P1.make(1, [1]),
    "cycle dim": lambda x: cycles.CyclePattern(V1, x, {1: None}),
    "incidence key": lambda x: cycles.CyclePattern(V1, 1, {x: None}),
    "incidence value": lambda x: cycles.CyclePattern(V1, 1, {1: x}),
    "joint key": lambda x: cycles.JointPattern(LINE_THROUGH, LINE_THROUGH, {x: 1}, 1),
    "joint value": lambda x: cycles.JointPattern(LINE_THROUGH, LINE_THROUGH, {1: x}, 1),
    "joint total": lambda x: cycles.JointPattern(LINE_THROUGH, LINE_THROUGH, {1: None}, x),
    "cocycle codim": lambda x: cocycles.CocyclePattern(V1, x, 1, {1: 0}),
    "cocycle target dim": lambda x: cocycles.CocyclePattern(V1, 1, x, {1: 0}),
    "excess key": lambda x: cocycles.CocyclePattern(V1, 1, 1, {x: 0}),
    "excess value": lambda x: cocycles.CocyclePattern(V1, 1, 1, {1: x}),
    "fiber dimension key": lambda x: cocycles.morphism_fiber_pattern(V1, {x: 1}, 1),
    "fiber dimension": lambda x: cocycles.morphism_fiber_pattern(V1, {1: x}, 1),
    "hyperplane count": lambda x: cocycles.slice_with_hyperplanes(cocycles.CocyclePattern(V1, 1, 1, {1: 0}), x),
    "cone class dim": lambda x: CONE_P2.cls(x, 1, [1]),
    "cone class bound": lambda x: CONE_P2.cls(2, x, [1]),
    "cone record dim": lambda x: cones.ConeClass(CONE_P2, x, 1, P2.make(1, [1])),
    "cone record bound": lambda x: cones.ConeClass(CONE_P2, 2, x, P2.make(1, [1])),
    "group dim": lambda x: cones.chow_group(CONE_P2, x, 0),
    "group bound": lambda x: cones.chow_group(CONE_P2, 1, x),
}

# every name, symbol and label a layer stores, as a call that is valid when ``x`` is the string given
TEXT_SITES = {
    "ring name": ("r", lambda x: chow.ChowRingPresentation(x, 0, [["1"]], {}, [], [1])),
    "unit symbol": ("1", lambda x: chow.ChowRingPresentation("r", 0, [[x]], {}, [], [1])),
    "basis symbol": ("h", lambda x: chow.ChowRingPresentation("r", 1, [["1"], [x]], {}, [1], [1])),
    "product symbol": ("p", lambda x: chow.ChowRingPresentation(
        "r", 2, [["1"], ["h"], ["p"]], {("h", "h"): {x: 1}}, [1], [1])),
    "fiber label": ("0", lambda x: cycles.FamilyCertificate(LINE_THROUGH, ((x, LINE_THROUGH),),
                                                            (LINE_THROUGH, LINE_THROUGH), True)),
}


class TestIntegersAndTextOnly:
    """Each layer stores the integers and strings it was given: a float or a digit string where an integer
    belongs, and anything but a string where a name belongs, raise ``TypeError`` rather than being
    truncated, parsed or renamed."""

    @pytest.mark.parametrize("bad", [1.0, 1.9, "1"])
    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_a_float_or_a_digit_string_raises(self, site, bad):
        build = INTEGER_SITES[site]
        build(1)
        with pytest.raises(TypeError):
            build(bad)

    @pytest.mark.parametrize("site", INTEGER_SITES)
    def test_a_bool_reads_as_the_int_it_is(self, site):
        # pickle spells True and 1 differently, so equal bytes mean no bool was stored
        build = INTEGER_SITES[site]
        assert pickle.dumps(build(True)) == pickle.dumps(build(1))

    @pytest.mark.parametrize("bad", [1, None, b"r", ("r",)])
    @pytest.mark.parametrize("site", TEXT_SITES)
    def test_a_name_that_is_not_a_string_raises(self, site, bad):
        good, build = TEXT_SITES[site]
        build(good)
        with pytest.raises(TypeError):
            build(bad)
