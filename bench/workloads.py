"""The benchmark's workloads: lists of ``sgfact`` command lines made from a seed.

A job is one call of ``sgfact.cli.run(argv)``.  Its ``key`` names it in the
expected-output table (``expected.json``): the argument vector joined by
spaces, with the path of a generated equations file replaced by the name of
its group.  This module uses only the standard library, so the set-up probe
can read the semigroup definitions before it starts its clock.
"""

from __future__ import annotations

import itertools
import json
import os
import random
from dataclasses import dataclass

WORKLOADS = ("invariants", "wide-presentation", "element-queries", "full-tame")

# invariants: every kernel has dimension <= 6, so the Graver-completion route
# feeds presentations; the two-atom job is dominated by semigroup construction
INVARIANT_SEMIGROUPS = (
    "17 33 53 71",
    "11 36 39",
    "6 9 20",
    "(0,2,3);(1,4,0);(2,1,2);(3,0,1);(4,3,5)",
)
TWO_ATOM = "1000003 1000033"

# wide-presentation: kernel dimension 7 takes the block-elimination toric ideal
WIDE = "(0,0,2);(0,1,1);(0,1,2);(0,2,0);(1,0,1);(1,1,0);(1,1,1);(2,0,0);(2,1,0);(3,0,0)"

# element-queries
CATENARY_RANGES = (("17 33 53 71", 1000), ("7 10 13", 1000))
# semigroup -> largest coefficient of one atom in a random element
QUERY_SEMIGROUPS = {"17 33 53 71": 11, "(1,5);(2,9);(3,3);(4,1);(7,2)": 4}
QUERY_COMMANDS = ("factorizations", "length-set", "delta-element")
QUERIES = 300  # at least 200, so that 10 or more samples lie beyond p95
CATENARY_SEMIGROUP = "(1,5);(2,9);(3,3);(4,1);(7,2)"
CATENARY_COEFF = 2
CATENARY_QUERIES = 10

# full-tame: C7 and C2 x C4 run for minutes and are left out
BLOCK_GROUPS = {"C2^3": (2, 2, 2), "C6": (6,), "C5": (5,)}

Vector = tuple[int, ...]


@dataclass(frozen=True)
class Job:
    kind: str  # delta, presentation, graver, catenary, query, block or tame
    key: str
    argv: tuple[str, ...]


def parse_generators(text: str) -> list[Vector]:
    """Atoms of a ``--gens`` string, in either of the CLI's two notations."""
    if "(" in text:
        return [tuple(int(c) for c in part.strip()[1:-1].split(",")) for part in text.split(";")]
    return [(int(tok),) for tok in text.split()]


def format_element(vec: Vector) -> str:
    return str(vec[0]) if len(vec) == 1 else "(" + ",".join(str(c) for c in vec) + ")"


def _value(atoms: list[Vector], coeffs) -> Vector:
    return tuple(sum(c * a[i] for c, a in zip(coeffs, atoms)) for i in range(len(atoms[0])))


def random_element(rng: random.Random, gens: str, cmax: int) -> Vector:
    """A nonzero combination of the atoms with coefficients drawn from 0..cmax."""
    atoms = parse_generators(gens)
    while True:
        coeffs = [rng.randint(0, cmax) for _ in atoms]
        if any(coeffs):
            return _value(atoms, coeffs)


def element_domain(gens: str, cmax: int) -> list[Vector]:
    """Every element ``random_element`` can return, sorted."""
    atoms = parse_generators(gens)
    values = {
        _value(atoms, coeffs)
        for coeffs in itertools.product(range(cmax + 1), repeat=len(atoms))
        if any(coeffs)
    }
    return sorted(values)


def _job(kind: str, *argv: str, key: str | None = None) -> Job:
    return Job(kind, key if key is not None else " ".join(argv), argv)


def query_job(command: str, gens: str, element: Vector) -> Job:
    kind = "catenary" if command == "catenary" else "query"
    return _job(kind, command, "--gens", gens, "--element", format_element(element))


def invariant_jobs(gens: str) -> list[Job]:
    return [
        _job("delta", "delta-set", "--gens", gens, "--method", "grobner"),
        _job("delta", "delta-set", "--gens", gens, "--method", "hilbert"),
        _job("presentation", "min-presentation", "--gens", gens),
        _job("presentation", "betti", "--gens", gens),
        _job("graver", "graver", "--gens", gens),
    ]


def _equations_path(eq_dir: str, name: str) -> str:
    return os.path.join(eq_dir, name.replace("^", "_") + ".json")


def write_equations(eq_dir: str) -> None:
    """Write the equations file of every block monoid: one congruence row per group coordinate."""
    for name, moduli in BLOCK_GROUPS.items():
        elements = sorted(g for g in itertools.product(*(range(m) for m in moduli)) if any(g))
        rows = [[g[i] for g in elements] for i in range(len(moduli))]
        with open(_equations_path(eq_dir, name), "w", encoding="utf-8") as fh:
            json.dump({"matrix": rows, "moduli": list(moduli)}, fh)


def block_jobs(name: str, eq_dir: str) -> list[Job]:
    """``block-monoid`` and ``tame`` for one group, reading the file ``write_equations`` made."""
    text = " ".join(str(m) for m in BLOCK_GROUPS[name])
    path = _equations_path(eq_dir, name)
    return [
        _job("block", "block-monoid", "--moduli", text),
        _job("tame", "tame", "--equations", path, key=f"tame --equations {name}"),
    ]


def jobs_for(workload: str, seed: int, eq_dir: str, smoke: bool = False) -> list[Job]:
    """The job list of one pass; the same seed gives the same list.

    ``smoke`` keeps only the smallest instance of the workload, for a check
    that finishes in seconds.  wide-presentation has a single instance.
    """
    rng = random.Random(f"{workload}:{seed}")
    if workload == "invariants":
        if smoke:
            jobs = invariant_jobs("6 9 20")
        else:
            jobs = [job for gens in INVARIANT_SEMIGROUPS for job in invariant_jobs(gens)]
            jobs.append(_job("delta", "delta-set", "--gens", TWO_ATOM))
        rng.shuffle(jobs)
        return jobs
    if workload == "wide-presentation":
        return [_job("presentation", "min-presentation", "--gens", WIDE)]
    if workload == "element-queries":
        ranges = CATENARY_RANGES[:1] if smoke else CATENARY_RANGES
        jobs = [
            _job("catenary", "catenary-range", "--gens", gens, "--bound", str(bound))
            for gens, bound in ranges
        ]
        # every (semigroup, command) pair gets the same share of the stream,
        # so that latency percentiles differ little from seed to seed
        pairs = list(itertools.product(QUERY_SEMIGROUPS, QUERY_COMMANDS))
        count = len(pairs) if smoke else QUERIES
        stream = [pairs[i % len(pairs)] for i in range(count)]
        rng.shuffle(stream)
        for gens, command in stream:
            jobs.append(query_job(command, gens, random_element(rng, gens, QUERY_SEMIGROUPS[gens])))
        for _ in range(1 if smoke else CATENARY_QUERIES):
            element = random_element(rng, CATENARY_SEMIGROUP, CATENARY_COEFF)
            jobs.append(query_job("catenary", CATENARY_SEMIGROUP, element))
        return jobs
    if workload == "full-tame":
        names = ["C5"] if smoke else list(BLOCK_GROUPS)
        rng.shuffle(names)
        return [job for name in names for job in block_jobs(name, eq_dir)]
    raise ValueError(f"unknown workload {workload!r}")


def all_jobs(eq_dir: str) -> list[Job]:
    """Every job any seed can produce, for recording the expected outputs."""
    jobs = [job for w in ("invariants", "wide-presentation", "full-tame") for job in jobs_for(w, 0, eq_dir)]
    jobs += [job for job in jobs_for("element-queries", 0, eq_dir) if job.argv[0] == "catenary-range"]
    for gens, cmax in QUERY_SEMIGROUPS.items():
        for element in element_domain(gens, cmax):
            jobs += [query_job(command, gens, element) for command in QUERY_COMMANDS]
    for element in element_domain(CATENARY_SEMIGROUP, CATENARY_COEFF):
        jobs.append(query_job("catenary", CATENARY_SEMIGROUP, element))
    return jobs


def setup_semigroups(workload: str) -> list[str]:
    """The ``--gens`` strings a workload builds during set-up (full-tame builds block monoids)."""
    if workload == "invariants":
        return [*INVARIANT_SEMIGROUPS, TWO_ATOM]
    if workload == "wide-presentation":
        return [WIDE]
    if workload == "element-queries":
        gens = [g for g, _ in CATENARY_RANGES] + list(QUERY_SEMIGROUPS) + [CATENARY_SEMIGROUP]
        return list(dict.fromkeys(gens))
    if workload == "full-tame":
        return []
    raise ValueError(f"unknown workload {workload!r}")
