"""Op schedules for the four benchmark workloads.

A workload is a list of *groups* of *slots*.  A slot lists interchangeable
ops of one kind and size: the same command over different cutoffs or
sample seeds.  Every slot of a group has the same number of alternatives.

The seed fixes a run's *plan*: per group, a random permutation of the
alternative indices, dealt out over the group's slots, so each alternative
is used about equally often and a run's work barely depends on the seed.  A
*round* runs every op of the plan once, in an order shuffled anew each
round, so a run repeats each op once per round.  The union of all slots is
the finite menu that ``reference.json`` holds a digest for.

Ops are plain tuples, so they print, hash and compare:

* ``("cli", argv)`` -- an in-process ``mzvsums.cli.main(argv)`` call;
* ``("lib", "module.name", args)`` -- a public library call;
* ``("cache_io",)`` -- a ``ZetaCache.save`` / ``load`` round trip.
"""

from __future__ import annotations

import itertools
import random

# The five letter triples of the acceptance suite.
TRIPLES = ("3,1,2", "4,2,3", "5,1,3", "5,3,4", "2,2,2")

# Workload -> environment variables it defines; every other MZV_* is removed.
ENV = {"grid": {}, "grid-pool": {"MZV_THREADS": "2"}, "algebra": {}, "deep": {}}

# Zeta-star values of this index at this cutoff pass 4300 decimal digits, so
# the CLI fails to print them (exit 2).  Run as a named probe, outside the
# measured ops, until the CLI prints such values.
PROBE_ARGV = ("eval", "zeta-star", "--index", "2,2,2,2,2,2", "--m", "1500")

# Cutoff at which the deep workload's save/load cache is filled: its largest
# values pass 4300 decimal digits.
CACHE_IO_M = 1200


def _cli(*argv) -> tuple:
    return ("cli", tuple(str(a) for a in argv))


def _every(alternatives: list[tuple]) -> list[list[tuple]]:
    """A group that runs every alternative once per round, in a seeded order."""
    return [list(alternatives) for _ in alternatives]


def _identity_groups(max_p: int, max_q: int, lo: int) -> list[list[list[tuple]]]:
    """One single-op slot per (triple, kind, p, q) cell, each over the cutoffs lo..lo+3.

    The window is the same for every seed: with windows a cutoff apart dealt
    over the triples, which triple got the higher window moved the p90 op by
    up to 12% between seeds, though the run's total work did not move.
    """
    return [
        [[_cli("verify", kind, "--abc", abc, "--p", p, "--q", q, "--m", f"{lo}..{lo + 3}")]]
        for abc in TRIPLES
        for kind in ("s-identity", "t-identity")
        for p in range(max_p + 1)
        for q in range(max_q + 1)
    ]


def grid_groups() -> list[list[list[tuple]]]:
    """The identity sweeps, plus one homomorphism check per sample seed 0-15.

    Every sample runs in every plan: the sampled word pairs set a check's
    cost (a fourfold range), so drawing some of them would move the tail op
    with the seed.
    """
    homomorphism = _every([_cli("verify", "homomorphism", "--m", "0..7", "--count", 1, "--seed", s) for s in range(16)])
    return _identity_groups(3, 3, 12) + [homomorphism]


def grid_pool_groups() -> list[list[list[tuple]]]:
    return _identity_groups(2, 3, 14)


def algebra_groups() -> list[list[list[tuple]]]:
    """Per kind, two groups of gen/symmetric ops (cutoffs 8-12 and 14-18) over the five triples.

    The twenty series checks take most of a round's time and form its top
    fifth, so the p90 tail falls among them rather than on the edge
    between them and the ninety small frs/frt checks.
    """
    groups = [
        [[_cli("verify", kind, "--abc", abc, "--m", m, "--bounds", "4,4") for m in cutoffs] for abc in TRIPLES]
        for kind in ("gen", "symmetric")
        for cutoffs in (range(8, 13), range(14, 19))
    ]
    for abc in TRIPLES:
        for kind in ("frs", "frt"):
            for p in range(3):
                for q in range(4 - p):
                    groups.append([[_cli("verify", kind, "--abc", abc, "--p", p, "--q", q)]])
    return groups


def deep_groups() -> list[list[list[tuple]]]:
    """Forty-eight ops of 0.01-1.1 s, each run once per round; cutoffs step by a few percent.

    Forty-eight ops put ten or more beyond the p75 tail.
    """
    from mzvsums.indices import AbcParams

    p312 = AbcParams(3, 1, 2)
    return [
        _every([("lib", "zeta.zeta_star_trunc", ((2,) * 6, m)) for m in (340, 350, 360)]),
        _every([("lib", "zeta.zeta_star_trunc", ((3,) * 4, m)) for m in (420, 435, 450)]),
        _every([("lib", "zeta.zeta_trunc", ((2, 3, 2, 3, 2), m)) for m in (470, 485, 500)]),
        _every([("lib", "zeta.s_star_direct", (3, 3, m, p312)) for m in (42, 43, 44)]),
        _every([("lib", "zeta.t_star_direct", (2, 2, m, p312)) for m in (95, 100, 105)]),
        _every([("lib", "zeta.verify_identity_s", (2, 1, m, p312)) for m in (170, 176, 182)]),
        _every([("lib", "zeta.verify_identity_t", (1, 2, m, p312)) for m in (140, 145, 150)]),
        _every([("lib", "closedform.converge_report", (p, q, (25, 50, 100, 200, 400))) for p, q in ((1, 1), (2, 0), (0, 3))]),
        _every([("lib", "closedform.bernoulli_via_tangent", (n,)) for n in (600, 612, 624)]),
        [[("cache_io",)]],
        _every([_cli("eval", "zeta-star", "--index", "2,2,2,2", "--m", m) for m in (370, 380, 390)]),
        _every([_cli("eval", "s-star", "--p", 2, "--q", 1, "--m", m) for m in (200, 206, 212)]),
        _every([_cli("eval", "closed", "--kind", "s-star", "--p", p, "--q", q) for p, q in ((5, 5), (6, 4), (4, 6))]),
        _every([_cli("converge", "--p", p, "--q", q, "--m", "25,50,100,200") for p, q in ((2, 1), (1, 2))]),
        _every([_cli("verify", "t-identity", "--p", 1, "--q", 1, "--m", f"{lo}..{lo + 3}") for lo in (210, 216, 222)]),
        _every([_cli("verify", "s-identity", "--p", 2, "--q", 1, "--m", f"{lo}..{lo + 1}") for lo in (136, 140, 144)]),
        _every([_cli("verify", "s-identity", "--abc", "5,3,4", "--p", 1, "--q", 2, "--m", f"{lo}..{lo + 1}")
                for lo in (136, 140, 144)]),
    ]


GROUPS = {"grid": grid_groups, "grid-pool": grid_pool_groups, "algebra": algebra_groups, "deep": deep_groups}


def plan(workload: str, seed: int) -> list[tuple]:
    """The ops of one run: per group, a seeded permutation of the alternatives dealt over its slots."""
    rng = random.Random(f"{workload}/{seed}/plan")
    ops = []
    for group in GROUPS[workload]():
        order = rng.sample(range(len(group[0])), len(group[0]))
        ops.extend(slot[order[i % len(order)]] for i, slot in enumerate(group))
    return ops


def rounds(workload: str, seed: int):
    """Yield the run's rounds for this seed: the plan in a fresh order each time, indefinitely."""
    ops = plan(workload, seed)
    for r in itertools.count():
        order = list(ops)
        random.Random(f"{workload}/{seed}/{r}").shuffle(order)
        yield order


def menu(workload: str) -> list[tuple]:
    """Every op a plan of this workload can hold."""
    return sorted({op for group in GROUPS[workload]() for slot in group for op in slot}, key=repr)
