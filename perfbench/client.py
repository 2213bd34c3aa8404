"""The benchmark's in-process client of toralzeta, and one timed set-up.

    python3 perfbench/client.py DIM

sets toralzeta up once in this fresh interpreter (import, then one warm-up
request at dimension DIM) and prints the seconds that took.  run.py starts
this several times per run and reports the median as setup_s.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parent.parent / "src"


def warmup_argv(dim: int) -> list[str]:
    """classify on the companion matrix of x^d - x - 1.

    Its characteristic polynomial has no cyclotomic or reciprocal factor,
    so the request fills the cyclotomic cache up to order 2 d^2 and takes
    the exact path, without mpmath.
    """
    rows = [[int(i == j + 1) for j in range(dim - 1)] + [int(i < 2)] for i in range(dim)]
    return ["classify", "--matrix", json.dumps(rows).replace(" ", "")]


def call(argv):
    """One request through toralzeta.cli.main; returns (exit code, stdout, error)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = sys.modules["toralzeta.cli"].main(argv)
        except Exception as exc:  # a failed request is counted, not fatal
            return None, out.getvalue(), f"{type(exc).__name__}: {exc}"
    return rc, out.getvalue(), None


def purge() -> None:
    """Forget toralzeta and mpmath, so that the next set_up starts cold."""
    for name in list(sys.modules):
        if name.split(".")[0] in ("toralzeta", "mpmath"):
            del sys.modules[name]


def set_up(dim: int) -> float:
    """Import toralzeta from src/ and send one warm-up request; returns seconds."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = perf_counter()
    package = importlib.import_module("toralzeta")
    importlib.import_module("toralzeta.cli")
    rc, _, error = call(warmup_argv(dim))
    elapsed = perf_counter() - start
    if not Path(package.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"toralzeta imported from {package.__file__}, not {SRC}")
    if rc != 0:
        raise RuntimeError(f"warm-up request failed: {error or rc}")
    return elapsed


if __name__ == "__main__":
    print(set_up(int(sys.argv[1])))
