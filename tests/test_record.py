"""The value contract of `record.Record`, on every record class of the
package.

Oracle: the behaviour of a frozen dataclass, spelled out, and the hash
and repr of one made by `dataclasses.make_dataclass` with the same fields.
Equality needs the same class and equal field tuples, the hash is that of
the field tuple (so sets and dicts of records iterate as before), the repr
is `QualName(field=value!r, ...)`, attributes cannot be set or deleted,
and `replace` changes only the named fields. Construction checks its
arguments, fills in the declared defaults and runs each class's
`__post_init__` validation, also through `replace`. A record copies,
deep-copies and pickles to an equal record, points and forms included.
"""

import copy
import dataclasses
import importlib
import pickle
import pkgutil
from fractions import Fraction

import pytest

import lelongplane
from lelongplane.config import IncidenceStructure, PointSet
from lelongplane.construct import ConstructionReport, construct_certificate
from lelongplane.currents import ArrangementCurrent
from lelongplane.errors import PreconditionError
from lelongplane.exactpoly import HomPoly, ProjPoint
from lelongplane.instances import Instance, generate
from lelongplane.linsys import VanishingCondition
from lelongplane.record import Record

for _info in pkgutil.iter_modules(lelongplane.__path__):
    importlib.import_module(f"lelongplane.{_info.name}")


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


RECORDS = sorted((cls for cls in _subclasses(Record)
                  if cls.__module__.startswith("lelongplane.")),
                 key=lambda cls: (cls.__module__, cls.__qualname__))

_ORIGIN, _ONE = ProjPoint(0, 0, 1), ProjPoint(1, 0, 1)
_X, _Y = HomPoly.line(1, 0, 0), HomPoly.line(0, 1, 0)

# valid field values and a valid change of one field, for the classes
# whose __post_init__ checks its fields; other classes take any values
EXAMPLES = {
    PointSet: (((_ORIGIN, _ONE),), {"points": (_ONE,)}),
    IncidenceStructure: ((5, ((1, 2, 3, 4),)), {"lines": ((2, 3, 4, 5),)}),
    ArrangementCurrent: ((((_X, Fraction(1)),),),
                         {"lines": ((_Y, Fraction(1, 2)),)}),
    VanishingCondition: ((_ORIGIN, 2), {"order": 1}),
}


def example(cls):
    if cls in EXAMPLES:
        return EXAMPLES[cls]
    assert "__post_init__" not in cls.__dict__, \
        f"{cls.__name__} checks its fields: add it to EXAMPLES"
    values = tuple(range(len(cls._fields)))
    return values, {cls._fields[0]: "changed"}


def test_every_record_class_is_seen():
    assert len(RECORDS) == 19
    assert ConstructionReport in RECORDS and Instance in RECORDS


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_contract(cls):
    values, change = example(cls)
    fields = cls._fields
    r = cls(*values)
    assert tuple(getattr(r, f) for f in fields) == values
    assert cls(**dict(zip(fields, values))) == r

    # equality and hash follow the class and the field tuple
    twin = type(cls.__name__, (cls,), {})(*values)
    assert r == cls(*values) and not r != cls(*values)
    assert r != twin and twin != r
    assert r != values and r != None  # noqa: E711
    assert hash(r) == hash(values) == hash(cls(*values))
    assert len({r, cls(*values)}) == 1

    assert repr(r) == cls.__qualname__ + "(" + ", ".join(
        f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    frozen = dataclasses.make_dataclass(cls.__qualname__, fields,
                                        frozen=True)(*values)
    assert (hash(r), repr(r)) == (hash(frozen), repr(frozen))

    for name in (fields[0], "other"):
        with pytest.raises(AttributeError):
            setattr(r, name, 1)
        with pytest.raises(AttributeError):
            delattr(r, name)
    assert tuple(getattr(r, f) for f in fields) == values

    changed = r.replace(**change)
    assert type(changed) is cls
    assert all(getattr(changed, f) == change.get(f, getattr(r, f))
               for f in fields)
    assert r.replace() == r and r.replace() is not r
    with pytest.raises(TypeError):
        r.replace(unknown=1)

    with pytest.raises(TypeError):
        cls()  # every record has a field with no default
    with pytest.raises(TypeError):
        cls(*values, unknown=1)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values, values[0])

    for twin in (copy.copy(r), copy.deepcopy(r),
                 pickle.loads(pickle.dumps(r))):
        assert type(twin) is cls and twin == r and hash(twin) == hash(r)


def test_points_forms_and_pipeline_records_copy_and_pickle():
    inst = generate("generic12", 0)
    cert = construct_certificate(inst.point_set, extra=inst.extra).certificate
    for value in (ProjPoint(1, 2, 3), ProjPoint(Fraction(1, 2), -3, 0),
                  HomPoly.line(1, 2, 3), HomPoly.zero(2),
                  HomPoly.monomial((1, 1, 0), Fraction(-5, 7)),
                  inst, inst.point_set, cert):
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert type(twin) is type(value) and twin == value
            assert hash(twin) == hash(value) and repr(twin) == repr(value)


def test_defaults():
    report = ConstructionReport(("route",), "unsupported")
    assert report.certificate is None and report.detail == ""
    assert report == ConstructionReport(("route",), "unsupported", None, "")
    points = PointSet((_ORIGIN,))
    inst = Instance("generic12", 0, points, (1, 2, 3))
    assert inst.lines == () and inst.extra is None
    assert Instance("generic12", 0, points, (1, 2, 3), lines=(_X,)).lines \
        == (_X,)
    with pytest.raises(TypeError):
        ConstructionReport(("route",))


def test_post_init_checks_still_raise():
    with pytest.raises(PreconditionError, match="pairwise distinct"):
        PointSet((_ORIGIN, ProjPoint(0, 0, 2)))
    with pytest.raises(PreconditionError, match="4 distinct labels"):
        IncidenceStructure(4, ((1, 2, 3, 3),))
    with pytest.raises(PreconditionError, match="must be lines"):
        ArrangementCurrent(((HomPoly.monomial((2, 0, 0)), Fraction(1)),))
    with pytest.raises(PreconditionError, match="at least 1"):
        VanishingCondition(_ORIGIN, 0)
    # replace builds the copy through the same checks
    with pytest.raises(PreconditionError, match="pairwise distinct"):
        PointSet((_ORIGIN,)).replace(points=(_ORIGIN, _ORIGIN))
    with pytest.raises(PreconditionError, match="positive"):
        ArrangementCurrent(((_X, Fraction(1)),)).replace(
            lines=((_X, Fraction(0)),))
