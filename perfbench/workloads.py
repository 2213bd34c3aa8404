"""Seeded request streams for the benchmark workloads.

    python3 perfbench/workloads.py WORKLOAD SEED SECONDS OUT

writes the stream for a run of SECONDS to the file OUT, one request a
line.  A run generates its stream in that separate process, so that numpy,
which screens the random matrices, never loads into the process whose
memory the run measures.

Every workload is a list of CLI requests built from random.Random seeded
with the workload name and the seed, so one seed always gives the same
requests (a longer run gets a longer stream with the same start).
Requests are laid out in fixed cycles: each cycle holds the same mix of
subcommands, dimensions and matrix kinds, so that runs on different seeds
spend their time in the same proportions and only the drawn matrices
differ.  Nothing here imports toralzeta; matrices are screened with the
independent helpers in reference.py.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import random
import sys
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import reference

# toralzeta.oracle.ENUMERATION_LIMIT at the time the workloads were fixed:
# iterates with more fixed points than this are skipped by the enumeration.
ENUMERATION_LIMIT = 10_000


class Request(NamedTuple):
    command: str
    rows: tuple
    max_m: int | None = None
    fmt: str = "plain"
    unreduced: bool = False


def argv(req: Request) -> list[str]:
    text = "[" + ",".join("[" + ",".join(map(str, row)) + "]" for row in req.rows) + "]"
    out = [req.command, "--matrix", text, "--format", req.fmt]
    if req.max_m is not None:
        out += ["--max-m", str(req.max_m)]
    if req.unreduced:
        out.append("--unreduced")
    return out


def _nonsingular(rng, d):
    while True:
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        if reference.det(rows):
            return rows


def _conjugate(rng, rows):
    """rows conjugated by a random elementary unimodular matrix 1 + s E_ij."""
    d = len(rows)
    i, j = rng.sample(range(d), 2)
    s = rng.choice((-1, 1))
    e = tuple(tuple(int(r == c) + (s if (r, c) == (i, j) else 0) for c in range(d)) for r in range(d))
    e_inv = tuple(tuple(int(r == c) - (s if (r, c) == (i, j) else 0) for c in range(d)) for r in range(d))
    return reference.mat_mul(reference.mat_mul(e, rows), e_inv)


# Windows around the median Mahler measure of random nonsingular matrices
# with entries in [-3, 3], per dimension.  The Mahler measure is the growth
# rate of the counts and drives the cost of the exact arithmetic, so drawing
# from a window keeps each request class of similar cost from seed to seed.
_MAHLER_WINDOW = {2: (2.5, 6.5), 3: (8.5, 18.5), 4: (35.5, 55.5), 5: (140.5, 220.5),
                  6: (499.5, 1100.5)}


def _typical(rng, d):
    """Random hyperbolic matrix whose Mahler measure lies in the window for d.

    Hyperbolic (no eigenvalue of modulus 1), because an eigenvalue 1 zeroes
    every count and makes the request trivially cheap.
    """
    import numpy  # generation runs in its own process; see the module docstring

    lo, hi = _MAHLER_WINDOW[d]
    while True:
        rows = _nonsingular(rng, d)
        moduli = numpy.abs(numpy.linalg.eigvals(numpy.array(rows, dtype=float)))
        if (lo <= numpy.prod(numpy.maximum(1.0, moduli)) <= hi
                and numpy.all(numpy.abs(moduli - 1) > 1e-6)):
            return rows


def _enumerated_points(rows, max_m):
    """Fixed points summed over the iterates the oracle enumerates.

    |det(1 - M^m)| is taken as prod |1 - lambda^m| in floating point:
    counts up to the limit round exactly, and the total only has to land
    in a window.
    """
    import numpy

    eigenvalues = numpy.linalg.eigvals(numpy.array(rows, dtype=float))
    iterates = numpy.arange(1, max_m + 1)
    factors = numpy.abs(1 - eigenvalues[None, :] ** iterates[:, None])
    counts = numpy.rint(numpy.prod(factors, axis=1))
    # A root of unity of order n zeroes every n-th count exactly; in floating
    # point it leaves a residue that larger eigenvalues blow up, so those
    # counts are set from the exact orders.
    if numpy.any(numpy.abs(numpy.abs(eigenvalues) - 1) < 1e-3):
        for n in reference.root_of_unity_orders(reference.char_poly(rows)):
            counts[iterates % n == 0] = 0
    return int(sum(c for c in counts if 0 < c <= ENUMERATION_LIMIT))


# Target totals of points the check oracle enumerates, per dimension: the
# per-point cost grows with d, so these windows give check requests of
# similar cost and keep the oracle's share of the workload steady.
_CHECK_POINTS = {2: (3000, 6000), 3: (1500, 3000), 4: (1000, 2000)}


def _check_matrix(rng, d, max_m):
    lo, hi = _CHECK_POINTS[d]
    while True:
        rows = _nonsingular(rng, d)
        if lo <= _enumerated_points(rows, max_m) <= hi:
            return rows


def _zeta_slot(d, command):
    return lambda rng: Request(command, _typical(rng, d))


_ZETA_SLOTS = [_zeta_slot(d, command) for d, command in [
    (6, "zeta"), (5, "lefschetz"), (5, "zeta"), (5, "zeta"),
    (6, "lefschetz"), (5, "lefschetz"), (5, "zeta"), (5, "zeta"),
]]


def _deep_slot(command, d):
    return lambda rng: Request(command, _typical(rng, d), max_m=300, fmt=rng.choice(("plain", "json")))


def _check_slot(d):
    def draw(rng):
        max_m = rng.randint(10, 30)
        return Request("check", _check_matrix(rng, d, max_m), max_m=max_m,
                       fmt=rng.choice(("plain", "json")))
    return draw


_COUNTS_SLOTS = [slot for d in (2, 3, 4)
                 for slot in (_deep_slot("counts", d), _deep_slot("exponents", d), _check_slot(d))]

# One zeta-counts cycle: two d=6 and six d=5 zeta/lefschetz requests, then
# counts, exponents and check at each of d=2, 3, 4.  Ordered by cost, the
# six d=5 requests come first (about 10-30 ms), then exponents and counts
# (about 25-190 ms), then the three checks and the four d=6 requests
# (about 120-550 ms): the median falls in the middle of the exponents and
# counts band, and the tail (the top few percent) among the checks and the
# d=6 requests.
_ZETA_COUNTS_SLOTS = _ZETA_SLOTS + _COUNTS_SLOTS


# small-mixed draws every request independently from a fixed pool.  The
# workload is specified as tiny d=1-3 requests, every subcommand but check,
# all three formats, a Zipf-like choice from a fixed pool, some unimodular
# conjugates and some --unreduced.  No measured traffic is in
# the repository, so every number below is an assumption, not a measured
# mix: an even share per subcommand and per format, the classical Zipf law
# (exponent 1) over a pool of 64 matrices, a quarter of the requests of
# d > 1 sent as conjugates and a quarter of zeta/lefschetz as --unreduced.
SMALL_POOL_SIZE = 64
ZIPF_EXPONENT = 1.0
CONJUGATE_SHARE = 0.25
UNREDUCED_SHARE = 0.25
SMALL_COMMANDS = ("zeta", "lefschetz", "counts", "exponents", "classify", "report")
FORMATS = ("plain", "latex", "json")
CLI_DEFAULT_MAX_M = 10  # toralzeta.cli's --max-m default


def _small_pool():
    """SMALL_POOL_SIZE distinct matrices, d uniform in 1-3, entries in [-3, 3].

    The same for every seed; a matrix's popularity rank is its place here.
    """
    rng = random.Random("small-mixed/pool")
    pool = []
    while len(pool) < SMALL_POOL_SIZE:
        d = rng.randint(1, 3)
        rows = tuple(tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(d))
        if rows not in pool:
            pool.append(rows)
    return tuple(pool)


_SMALL_POOL = _small_pool()
_ZIPF_CUM = list(itertools.accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(SMALL_POOL_SIZE)))


def _small_request(rng):
    rows = rng.choices(_SMALL_POOL, cum_weights=_ZIPF_CUM)[0]
    if len(rows) > 1 and rng.random() < CONJUGATE_SHARE:
        rows = _conjugate(rng, rows)
    command = rng.choice(SMALL_COMMANDS)
    max_m = CLI_DEFAULT_MAX_M if command in ("counts", "exponents", "report") else None
    unreduced = command in ("zeta", "lefschetz") and rng.random() < UNREDUCED_SHARE
    return Request(command, rows, max_m, rng.choice(FORMATS), unreduced)


class Workload(NamedTuple):
    why: str
    slots: list  # one cycle: each slot draws one request from the rng
    max_dim: int  # dimension of the warm-up request
    # The highest throughput (requests/s) measured at the seed commit on
    # the development machine, rounded up.  A stream holds HEADROOM times
    # what that rate completes in a run, so a run does not reach its end
    # unless the program gets about HEADROOM times faster.
    seed_rps: float
    distinct: bool  # no matrix may repeat


HEADROOM = 10

WORKLOADS = {
    "zeta-counts": Workload(
        "distinct matrices: zeta/lefschetz at d=5-6 (exterior powers, determinants, gcd) and deep counts/exponents "
        "plus oracle checks at d=2-4",
        _ZETA_COUNTS_SLOTS, 6, 12.0, True),
    "small-mixed": Workload(
        "tiny d=1-3 requests, every subcommand but check and every format, from a Zipf pool: fixed CLI cost, repeats",
        [_small_request], 3, 260.0, False),
}


def stream_length(workload: str, seconds: float) -> int:
    """Requests in a stream: whole cycles, HEADROOM runs at the seed rate."""
    spec = WORKLOADS[workload]
    cycles = math.ceil(HEADROOM * spec.seed_rps * seconds / len(spec.slots))
    return cycles * len(spec.slots)


def generate(workload: str, seed: int, seconds: float) -> list[Request]:
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}")
    out, seen = [], set()
    for _ in range(stream_length(workload, seconds) // len(spec.slots)):
        for slot in spec.slots:
            req = slot(rng)
            redraws = 0
            while spec.distinct and req.rows in seen:
                redraws += 1
                if redraws > 1000:
                    raise RuntimeError(f"{workload}: too few distinct matrices for a slot")
                req = slot(rng)
            seen.add(req.rows)
            out.append(req)
    return out


def write(requests, path: Path) -> None:
    with path.open("w") as out:
        for req in requests:
            out.write(json.dumps(req) + "\n")


def read(path: Path):
    """The requests of a stream file, one at a time."""
    with path.open() as lines:
        for line in lines:
            command, rows, max_m, fmt, unreduced = json.loads(line)
            yield Request(command, tuple(map(tuple, rows)), max_m, fmt, unreduced)


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def path_of(poly) -> str:
    """Which classify path a characteristic polynomial takes, from the reference helpers."""
    if reference.root_of_unity_orders(poly):
        return "root_of_unity"
    if reference.poly_gcd_degree(poly, list(reversed(poly))) == 0:
        return "exact_hyperbolic"
    return "numeric_hyperbolic"


def input_properties(requests) -> dict:
    """Measured properties of the requests a run attempted."""
    seen_rows, seen_polys = set(), set()
    repeats = poly_repeats = singular = 0
    paths, dims = Counter(), Counter()
    entries = [x for req in requests for row in req.rows for x in row]
    poly_cache = {}
    for req in requests:
        rows = req.rows
        dims[len(rows)] += 1
        repeats += rows in seen_rows
        seen_rows.add(rows)
        if rows not in poly_cache:
            poly = tuple(reference.char_poly(rows))
            poly_cache[rows] = (poly, path_of(list(poly)))
        poly, path = poly_cache[rows]
        poly_repeats += poly in seen_polys
        seen_polys.add(poly)
        singular += poly[0] == 0
        paths[path] += 1
    n = max(len(requests), 1)
    return {
        "requests": len(requests),
        "dimension_histogram": {str(d): dims[d] for d in sorted(dims)},
        "entry_range": [min(entries, default=0), max(entries, default=0)],
        "exact_repeat_share": round(repeats / n, 4),
        "charpoly_repeat_share": round(poly_repeats / n, 4),
        "singular_share": round(singular / n, 4),
        **{f"{p}_share": round(paths[p] / n, 4)
           for p in ("root_of_unity", "exact_hyperbolic", "numeric_hyperbolic")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Write a workload's request stream as JSON lines.")
    parser.add_argument("workload", choices=list(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("seconds", type=float)
    parser.add_argument("out", type=Path)
    args = parser.parse_args(argv)
    write(generate(args.workload, args.seed, args.seconds), args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
