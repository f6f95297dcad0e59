"""The package's value classes: ten written out by hand on frozen.Frozen and
ten NamedTuple records.  Each keeps the constructor, field names, equality,
hashing, immutability and repr text it had as a frozen record class."""

import copy
import pickle
from collections import namedtuple
from fractions import Fraction

import pytest

from toricsheaves.chern import BracketSlice, HilbertData
from toricsheaves.family import CharFunction, CornerFamily, DeltaFamily, DimGrid, RayFiltration
from toricsheaves.fan import Fan
from toricsheaves.frozen import Frozen
from toricsheaves.intersect import ChowClassSurface, IntersectionTable
from toricsheaves.moduli import ChiRecord, IntSeries, StratumRecord
from toricsheaves.polynomials import RatPoly
from toricsheaves.stability import FlagData, RayFlags, StabilityVerdict, WeightSystem, XiWeights
from toricsheaves.subspace import SubspaceQ

LINE = SubspaceQ(1, ((1,),))
DIMS = DimGrid((0,), (0,), (1,), (0, 1))
GRID = CornerFamily((0,), (0,), (0,), (LINE,), 1)
FAMILY = DeltaFamily("reflexive", 1, ((0, GRID),))
CHI = CharFunction(1, ((0, DIMS),))
POLY = RatPoly((Fraction(1, 2), Fraction(1)))
STRATUM = StratumRecord(((0,),), "stable", True, False)
FLAGS = RayFlags(0, (1,), (LINE,), (2,))
FAMILY_REPR = ("DeltaFamily(kind='reflexive', rank=1, corners=((0, CornerFamily(cone=(0,), "
               "lo=(0,), hi=(0,), values=(SubspaceQ(1, dim=1),), ambient=1)),), support=((),))")
CHI_REPR = ("CharFunction(rank=1, corners=((0, DimGrid(cone=(0,), lo=(0,), hi=(1,), "
            "values=(0, 1))),))")
FLAGS_REPR = "RayFlags(ray=0, gaps=(1,), flags=(SubspaceQ(1, dim=1),), positions=(2,))"
STRATUM_REPR = ("StratumRecord(pattern=((0,),), mu_verdict='stable', point_component=True, "
                "free_line=False)")

# (class, constructor arguments, the repr a frozen record class printed)
SAMPLES = [
    (SubspaceQ, (2, ((1, 0),)), "SubspaceQ(2, dim=1)"),
    (Fan, (2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2))),
     "Fan(rank=2, rays=((1, 0), (0, 1), (-1, -1)), max_cones=((0, 1), (0, 2), (1, 2)))"),
    (DimGrid, ((0,), (0,), (1,), (0, 1)), "DimGrid(cone=(0,), lo=(0,), hi=(1,), values=(0, 1))"),
    (CornerFamily, ((0,), (0,), (0,), (LINE,), 1),
     "CornerFamily(cone=(0,), lo=(0,), hi=(0,), values=(SubspaceQ(1, dim=1),), ambient=1)"),
    (DeltaFamily, ("reflexive", 1, ((0, GRID),)), FAMILY_REPR),
    (CharFunction, (1, ((0, DIMS),)), CHI_REPR),
    (RayFiltration, (0, ((0, LINE),)), "RayFiltration(ray=0, jumps=((0, SubspaceQ(1, dim=1)),))"),
    (WeightSystem, (2, ((((0,), (1,)), 3),)), "WeightSystem(ambient=2, entries=((((0,), (1,)), 3),))"),
    (RatPoly, ((Fraction(1, 2), Fraction(1)),), "RatPoly(coeffs=(Fraction(1, 2), Fraction(1, 1)))"),
    (IntSeries, (1, (1, 3)), "IntSeries(order=1, coeffs=(1, 3))"),
    (BracketSlice, ((0,), (((0,), 1),)), "BracketSlice(cone=(0,), entries=(((0,), 1),))"),
    (HilbertData, (POLY, Fraction(1), Fraction(0), None),
     "HilbertData(polynomial=RatPoly(coeffs=(Fraction(1, 2), Fraction(1, 1))), "
     "rank=Fraction(1, 1), degree=Fraction(0, 1), slope=None)"),
    (ChowClassSurface, (Fraction(1), (Fraction(0),), Fraction(-1, 2)),
     "ChowClassSurface(r0=Fraction(1, 1), d=(Fraction(0, 1),), p=Fraction(-1, 2))"),
    (IntersectionTable, (((1,),),), "IntersectionTable(matrix=((1,),))"),
    (StabilityVerdict, ("mu", "stable", None, Fraction(1, 2), True),
     "StabilityVerdict(test='mu', verdict='stable', witness=None, margin=Fraction(1, 2), "
     "exhaustive=True, note=None)"),
    (RayFlags, (0, (1,), (LINE,), (2,)), FLAGS_REPR),
    (FlagData, (2, (FLAGS,)), f"FlagData(rank=2, rays=({FLAGS_REPR},))"),
    (XiWeights, (2, (((0,), (1,)),), 1, ((1, 2),), (0,)),
     "XiWeights(ambient=2, keys=(((0,), (1,)),), denominator=1, polys=((1, 2),), index=(0,))"),
    (StratumRecord, (((0,),), "stable", True, False), STRATUM_REPR),
    (ChiRecord, (CHI, Fraction(1), FAMILY, [STRATUM]),
     f"ChiRecord(chi={CHI_REPR}, c2=Fraction(1, 1), witness={FAMILY_REPR}, "
     f"strata=[{STRATUM_REPR}])"),
]


@pytest.mark.parametrize("cls, args, text", SAMPLES, ids=[s[0].__name__ for s in SAMPLES])
def test_value_class_keeps_its_record_semantics(cls, args, text):
    """Equal fields give equal objects with equal hashes (a ChiRecord, which
    holds a list, has none); keyword construction, copy and pickle give an
    equal object; no field can be assigned or deleted; the repr is the
    recorded text.  A
    hand-written class equals no object of another class, a subclass or a
    named tuple with the same fields included."""
    a, b = cls(*args), cls(*args)
    assert a == b and not a != b
    assert a == cls(**dict(zip(cls._fields, args)))
    for twin in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert type(twin) is cls and twin == a
    if cls is ChiRecord:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
    assert repr(a) == text
    if issubclass(cls, Frozen):
        values = [getattr(a, name) for name in cls._fields]
        twin = type(cls.__name__, (cls,), {})(*values)
        record = namedtuple(cls.__name__, cls._fields)(*values)
        for other in (twin, record, tuple(values)):
            assert a != other and other != a and not a == other


def test_fan_hash_is_computed_when_built():
    """A fan's hash, by which its cone index and intersection table are
    looked up, is computed once when it is built and kept with its fields."""
    fan = Fan(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (0, 2), (1, 2)))
    assert sorted(vars(fan)) == ["_hash", "max_cones", "rank", "rays"]
    assert hash(fan) == fan._hash == hash((fan.rank, fan.rays, fan.max_cones))
