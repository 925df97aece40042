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
        "ModelTag": strata.ModelTag("product", 1, strata.GENERIC),
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
VERTEX = (
    f"Stratification(ambient_dim=1, strata=({SPEC},), "
    "model=ModelTag(kind='isolated_vertex', fiber_dim=None, base=None))"
)
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
    "ModelTag": "ModelTag(kind='product', fiber_dim=1, base=ModelTag(kind='generic', fiber_dim=None, base=None))",
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
    for name in ("GeneralizedBound", "StratumSpec", "ModelTag", "Stratification", "FpAbelianGroup", "GroupMap",
                 "ChowClass", "ConeVariety"):
        assert hash(values[name]) == hash(instances()[name]), name
    p2 = chow.builtin("P2")
    classes = {p2.make(1, (1,)), chow.builtin("P2").make(1, (1,)), p2.make(1, (2,))}
    assert len(classes) == 2
