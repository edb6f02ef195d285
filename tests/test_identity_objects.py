"""The six classes that memoize what they compute (``WeylGroup``,
``TwistContext``, ``ThetaLattice``, ``TorusStructure``, ``TorusDescriptor``
and ``GroupSpec``): their constructors' parameters and refusals, and their
identity semantics.

Each object is compared and hashed by identity: two builds of one family
give two specs that compare unequal, and every such object hashes, whatever
its fields hold.  The refusals are pinned by exact exception type and
message, in the order the constructor checks them.
"""

import inspect

import pytest

from korbits.catalog import FAMILIES, GroupSpec, TorusDescriptor, build
from korbits.dyadic import UCIRC, TorusStructure
from korbits.tori import ThetaLattice
from korbits.twisted import TwistContext
from korbits.weyl import SubgroupTooLarge, WeylGroup, identity, sign_flip
from support import flip, perm, tr

S3 = WeylGroup("A", 3, name="S3")

#: (constructor call, exception type, message); a row whose arguments break
#: two checks pins which check comes first.
REFUSALS = [
    pytest.param(
        lambda: WeylGroup("X", 3), ValueError, "unknown kind 'X'", id="weyl-kind"
    ),
    pytest.param(
        lambda: WeylGroup("A", 1025),
        SubgroupTooLarge,
        "rank of A(rank 1025) = 1025 exceeds cap 1024",
        id="weyl-rank-cap",
    ),
    pytest.param(
        lambda: WeylGroup("B", 1030, name="B1030"),
        SubgroupTooLarge,
        "rank of B1030 = 1030 exceeds cap 1024",
        id="weyl-rank-cap-named",
    ),
    pytest.param(
        lambda: WeylGroup("AxA", 3),
        ValueError,
        "AxA groups need a rank divisible by 2",
        id="weyl-divisibility",
    ),
    pytest.param(
        lambda: WeylGroup("X", 5000), ValueError, "unknown kind 'X'",
        id="weyl-kind-before-cap",
    ),
    pytest.param(
        lambda: WeylGroup("AxA", 1025),
        SubgroupTooLarge,
        "rank of AxA(rank 1025) = 1025 exceeds cap 1024",
        id="weyl-cap-before-divisibility",
    ),
    pytest.param(
        lambda: TwistContext(S3, identity(3), flip((1,), 3)),
        ValueError,
        "base element must lie in the group",
        id="context-base",
    ),
    pytest.param(
        lambda: TwistContext(S3, sign_flip([1, 2, 3], 3), perm(2, 3, 1)),
        ValueError,
        "twist of the base times the base must be e",
        id="context-involution",
    ),
    pytest.param(
        lambda: TwistContext(S3, tr(1, 2, 3), identity(3)),
        ValueError,
        "effective twist does not permute the simple reflections",
        id="context-simples",
    ),
    pytest.param(
        lambda: TwistContext(S3, tr(1, 2, 3), flip((1,), 3)),
        ValueError,
        "base element must lie in the group",
        id="context-base-before-simples",
    ),
    pytest.param(
        lambda: TwistContext(S3, tr(1, 2, 3), perm(1, 3, 2)),
        ValueError,
        "twist of the base times the base must be e",
        id="context-involution-before-simples",
    ),
    pytest.param(
        lambda: ThetaLattice(S3, identity(2)),
        ValueError,
        "lattice involution must have the group's rank",
        id="lattice-rank",
    ),
    pytest.param(
        lambda: ThetaLattice(S3, perm(2, -1, 3)),
        ValueError,
        "lattice map is not an involution",
        id="lattice-involution",
    ),
    pytest.param(
        lambda: ThetaLattice(S3, perm(2, -1)),
        ValueError,
        "lattice involution must have the group's rank",
        id="lattice-rank-before-involution",
    ),
    pytest.param(
        lambda: TorusStructure((1, -1, 2), (((1, 2), UCIRC), ((2, 3), UCIRC))),
        ValueError,
        "blocks overlap or leave 1..3: [1, 2, 2, 3]",
        id="structure-overlap",
    ),
    pytest.param(
        lambda: TorusStructure((1, -1), (((2, 3), UCIRC),)),
        ValueError,
        "blocks overlap or leave 1..2: [2, 3]",
        id="structure-past-size",
    ),
]


@pytest.mark.parametrize("make,exc,message", REFUSALS)
def test_constructor_refusals(make, exc, message):
    with pytest.raises(exc) as info:
        make()
    assert type(info.value) is exc
    assert str(info.value) == message


#: Each constructor's parameters, in order, with their defaults.
_EMPTY = inspect.Parameter.empty
SIGNATURES = [
    (WeylGroup, [("kind", _EMPTY), ("rank", _EMPTY), ("name", "")]),
    (TwistContext, [("group", _EMPTY), ("twist", _EMPTY), ("base", _EMPTY)]),
    (ThetaLattice, [("group", _EMPTY), ("theta", _EMPTY)]),
    (TorusStructure, [("labels", _EMPTY), ("blocks", ())]),
    (
        TorusDescriptor,
        [
            ("index", _EMPTY),
            ("twist_class", _EMPTY),
            ("wk", None),
            ("galois_conj", None),
            ("galois_left", None),
            ("galois_right", None),
            ("realizer", None),
        ],
    ),
    (
        GroupSpec,
        [
            (name, _EMPTY)
            for name in (
                "family",
                "params",
                "name",
                "context",
                "lattice",
                "tori",
                "reference_orbit",
                "torus_structure",
                "theta_map",
                "galois_map",
            )
        ],
    ),
]


@pytest.mark.parametrize(
    "cls,params", SIGNATURES, ids=[cls.__name__ for cls, _ in SIGNATURES]
)
def test_constructor_parameters(cls, params):
    got = inspect.signature(cls).parameters.values()
    assert [(p.name, p.default) for p in got] == params


#: The smallest instance of each family.
SMALL = {
    "GL": (3,),
    "SL2n": (2,),
    "Ustar": (2,),
    "SOodd1": (2,),
    "SOeven1": (2,),
    "Upq": (2, 1),
    "Restriction": (2,),
}


def test_every_family_has_a_small_instance():
    assert SMALL.keys() == FAMILIES.keys()


@pytest.mark.parametrize("family", SMALL)
def test_two_builds_are_distinct_hashable_objects(family):
    a, b = build(family, *SMALL[family]), build(family, *SMALL[family])
    assert a is not b
    assert a != b
    assert a == a
    assert len({a, b}) == 2
    for obj in (a, a.torus_structure, *a.tori, a.context, a.group, a.lattice):
        assert isinstance(hash(obj), int)

