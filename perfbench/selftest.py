"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Shows that a response with one corrupted coefficient or count is counted
as a failure by the same verification the runs use, that the untouched
response passes, and that the inputs digest depends on the seed and on
nothing else.  Exits non-zero on the first broken expectation.
"""

from __future__ import annotations

import json
import re
import sys

import client
import run
import workloads
from workloads import Request

CAT = ((2, 1), (1, 1))
D3 = ((2, 1, 0), (1, 1, 1), (0, 1, -1))


def _bump_last_integer(out: str) -> str:
    return re.sub(r"(\d+)(\D*)$", lambda m: f"{int(m.group(1)) + 1}{m.group(2)}", out)


def _json_edit(edit):
    def corrupt(out: str) -> str:
        data = json.loads(out)
        edit(data)
        return json.dumps(data)
    return corrupt


# one request per response shape, and a corruption of a single number in it
CASES = [
    (Request("counts", CAT, max_m=6), _bump_last_integer),
    (Request("counts", D3, max_m=8, fmt="json"),
     _json_edit(lambda d: d["signed_counts"].__setitem__(4, str(-int(d["signed_counts"][4]))))),
    (Request("zeta", CAT), lambda out: out.replace("3 z", "4 z")),
    (Request("zeta", D3, fmt="latex"), lambda out: out.replace("z^{2}", "2 z^{2}", 1)),
    (Request("lefschetz", D3, unreduced=True, fmt="json"),
     _json_edit(lambda d: d["factors"][1]["factor"].__setitem__(1, str(int(d["factors"][1]["factor"][1]) + 1)))),
    (Request("exponents", D3, max_m=7, fmt="latex"),
     lambda out: re.sub(r"^1 & (-?\d+)", lambda m: f"1 & {int(m.group(1)) + 1}", out, flags=re.M)),
    (Request("classify", D3, fmt="json"), _json_edit(lambda d: d.__setitem__("singular", True))),
    (Request("report", D3, max_m=5, fmt="json"),
     _json_edit(lambda d: d["counts"].__setitem__(2, str(int(d["counts"][2]) + 1)))),
    (Request("report", CAT, max_m=5), lambda out: out.replace("growth rate: 2.6", "growth rate: 2.7")),
]


def check_corruption_is_counted() -> None:
    for req, corrupt in CASES:
        rc, out, error = client.call(workloads.argv(req))
        if rc != 0 or error:
            raise AssertionError(f"{req.command} request failed: {error or rc}")
        bad = corrupt(out)
        if bad == out:
            raise AssertionError(f"corruption left the {req.command} {req.fmt} response unchanged")
        reasons = run.verify([(req, (rc, out, None)), (req, (rc, bad, None))])
        fail_ratio = sum(reasons.values()) / 2
        if fail_ratio != 0.5:
            raise AssertionError(f"{req.command} {req.fmt}: fail_ratio {fail_ratio}, expected 0.5 {dict(reasons)}")
        print(f"ok   corrupted {req.command} ({req.fmt}) caught: {next(iter(reasons))}")


def _digest(name: str, seed: int) -> str:
    """Digest of a short stream, written the way a run writes it."""
    path = run.RESULTS / f"selftest-{name}-seed{seed}-requests.jsonl"
    try:
        run.generate(name, seed, 1, path)
        return workloads.digest(path)
    finally:
        path.unlink(missing_ok=True)


def check_digests() -> None:
    run.RESULTS.mkdir(exist_ok=True)
    for name in workloads.WORKLOADS:
        first, again, other = _digest(name, 1), _digest(name, 1), _digest(name, 2)
        if first != again or first == other:
            raise AssertionError(f"{name}: digests {first} {again} {other}")
        print(f"ok   {name}: seed 1 -> {first} twice, seed 2 -> {other}")


def main() -> int:
    client.set_up(3)
    try:
        check_corruption_is_counted()
        check_digests()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
