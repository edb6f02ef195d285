"""The benchmark's workloads: each is one round of ``korbits`` queries.

A query is a CLI argument list plus the exit status it must end with.  A
run repeats its round whole, so every run attempts the same operations.
The seed shuffles the order of each round and, in ``cli-mix``, picks the
output formats and the invalid parameters of the refusal queries; the
instances and subcommands of a round are fixed, so two seeds ask for the
same amount of work and their timings can be compared.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import groups

EXIT_OK, EXIT_USAGE, EXIT_UNSUPPORTED = 0, 2, 3

PARAM_NAMES = {
    "GL": ("n",),
    "SL2n": ("n",),
    "Ustar": ("n",),
    "SOodd1": ("n",),
    "SOeven1": ("n",),
    "Upq": ("p", "q"),
    "Restriction": ("r",),
}

#: Families without little-Weyl-group data; ``orbits`` refuses them.
NO_WK_DATA = ("GL", "Ustar")


@dataclass(frozen=True)
class Query:
    command: str
    family: str
    params: tuple[int, ...]
    fmt: str
    expect: int = EXIT_OK

    @property
    def argv(self) -> list[str]:
        out = [self.command, "--family", self.family]
        for name, value in zip(PARAM_NAMES[self.family], self.params):
            out += [f"--{name}", str(value)]
        return out + ["--format", self.fmt]

    @property
    def instance(self) -> tuple[str, tuple[int, ...]]:
        return self.family, self.params


def _q(command, family, params, fmt) -> Query:
    expect = EXIT_OK
    if command == "orbits" and family in NO_WK_DATA:
        expect = EXIT_UNSUPPORTED
    return Query(command, family, tuple(params), fmt, expect)


# Largest instances under the enumeration cap.  GL(8) and U*(8) enumerate
# S8 with a twist, SO(11,1) the 23040 elements of D6, Res(5) the product
# S5 x S5; the three formats each appear.  U(4,4) repeats GL(8)'s group and
# SO(12,1) takes 2.7 s alone, so both are left out to keep a round near a
# third of the run and the median over rounds steady.
TWISTED_LARGE = (
    _q("twisted", "GL", (8,), "json"),
    _q("twisted", "Ustar", (4,), "dot"),
    _q("twisted", "SOodd1", (5,), "table"),
    _q("twisted", "Restriction", (5,), "json"),
)

# Coset tables and the Galois lookup: SL(8)/Sp has five tori over S8.
# SO(12,1) and U(4,4) take over 3 s each and are left out for the same
# reason as above.
ORBITS_LARGE = (
    _q("orbits", "SL2n", (4,), "table"),
    _q("orbits", "Upq", (4, 3), "json"),
    _q("orbits", "SOodd1", (5,), "json"),
    _q("orbits", "Restriction", (5,), "table"),
)

# Non-trivial Psi0 (GL, U(p,q)) plus SL(8)/Sp, whose Psi0 is empty.  GL(6)
# (11 s) and U(4,4) (7.5 s) are each longer than a whole round.
TORI_CLASSIFY = (
    _q("classify-tori", "GL", (5,), "table"),
    _q("classify-tori", "GL", (5,), "json"),
    _q("classify-tori", "Upq", (3, 3), "table"),
    _q("classify-tori", "Upq", (3, 3), "json"),
    _q("classify-tori", "Upq", (4, 3), "table"),
    _q("classify-tori", "Upq", (5, 2), "json"),
    _q("classify-tori", "Upq", (4, 2), "table"),
    _q("classify-tori", "SL2n", (4,), "json"),
)


def _small_instances(max_order: int) -> list[tuple[str, tuple[int, ...]]]:
    out = []
    candidates = (
        [("GL", (n,)) for n in range(1, 9)]
        + [(f, (n,)) for f in ("SL2n", "Ustar") for n in range(1, 5)]
        + [(f, (n,)) for f in ("SOodd1", "SOeven1") for n in range(1, 7)]
        + [("Upq", (p, q)) for p in range(1, 8) for q in range(1, p + 1)]
        + [("Restriction", (r,)) for r in range(1, 6)]
    )
    for family, params in candidates:
        kind, rank = groups.group_of(family, params)
        if groups.order(kind, rank) <= max_order:
            out.append((family, params))
    return out


# classify-tori on these takes 0.7 s or more (11 s on GL(6)); they belong
# to tori-classify, the one workload that spends its time in tori.
_HEAVY_TORI = {("GL", (5,)), ("GL", (6,)), ("Upq", (3, 3))}


def _invalid_query(rng: random.Random) -> Query:
    """A query the CLI must refuse with exit 2 (parameters out of range)."""
    family = rng.choice(sorted(PARAM_NAMES))
    command = rng.choice(("classify-tori", "orbits", "twisted", "verify"))
    if family == "Upq":
        q = rng.randint(2, 4)
        params = (rng.randint(0, q - 1), q)  # p < q
    else:
        params = (0,)
    return Query(command, family, params, rng.choice(("table", "json")), EXIT_USAGE)


def cli_mix(rng: random.Random) -> list[Query]:
    """Small and mid-size queries over all subcommands and families.

    Every instance with |W| <= 1000 gets twisted and orbits in both
    formats, verify and classify-tori once (format drawn by the seed);
    each instance with 1000 < |W| <= 5040 gets one query of a fixed
    subcommand; twelve invalid-parameter queries complete the round.
    """
    def fmt() -> str:
        return rng.choice(("table", "json"))

    out: list[Query] = []
    for family, params in _small_instances(1000):
        for f in ("table", "json"):
            out.append(_q("twisted", family, params, f))
            out.append(_q("orbits", family, params, f))
        out.append(_q("verify", family, params, fmt()))
        if (family, params) not in _HEAVY_TORI:
            out.append(_q("classify-tori", family, params, fmt()))
    mid = set(_small_instances(5040)) - set(_small_instances(1000))
    for family, params in sorted(mid):
        command = "twisted" if family in NO_WK_DATA else "orbits"
        out.append(_q(command, family, params, fmt()))
    out += [_invalid_query(rng) for _ in range(12)]
    return out


WORKLOADS = {
    "twisted-large": lambda rng: list(TWISTED_LARGE),
    "orbits-large": lambda rng: list(ORBITS_LARGE),
    "tori-classify": lambda rng: list(TORI_CLASSIFY),
    "cli-mix": cli_mix,
}


def make_round(workload: str, seed: int) -> list[Query]:
    """The queries of one round, in the seed's order."""
    rng = random.Random(seed)
    queries = WORKLOADS[workload](rng)
    rng.shuffle(queries)
    return queries
