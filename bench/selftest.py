"""Self-test of the benchmark: ``python3 bench/selftest.py [--no-smoke]``.

1. Each checker rejects a deliberately wrong answer (Theta off by 1e-2, a
   dropped relation, a missing expected exception, a wrong exit code) and
   accepts the true one.
2. The same seed regenerates identical inputs; another seed changes them.
3. Smoke mode: every workload runs end to end (one untraced and one traced
   pass) and reports correct results.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import inputs  # noqa: E402
import tasks  # noqa: E402
from reference import CheckFailed  # noqa: E402


def rejects(run, label: str) -> None:
    try:
        run()
    except CheckFailed:
        return
    raise AssertionError(f"checker accepted a wrong answer: {label}")


def spec_of(workload: str, kind: str, seed: int = 1) -> dict:
    return next(s for s in inputs.GENERATORS[workload](seed) if s["kind"] == kind)


def check_checkers() -> None:
    api = tasks.Api()
    jensen = spec_of("theta-orbit", "theta-jensen")
    tasks._theta_jensen(api, jensen)  # the true answer passes

    def theta_off(*args, **kwargs):
        est = tasks.cocycle.theta_haar(*args, **kwargs)
        return dataclasses.replace(est, value=est.value + 1e-2)

    api.theta_haar = theta_off
    rejects(lambda: tasks._theta_jensen(api, jensen), "Theta off by 1e-2")

    api = tasks.Api()
    m4 = next(s for s in inputs.theta_orbit(1) if s["kind"] == "classify-m4"
              and len(tasks.orbit.classify(tasks.orbit.Gamma.from_tokens(s["gamma"])).relations) == 2)
    tasks._classify(api, m4)

    def drop_relation(*args, **kwargs):
        cls = tasks.orbit.classify(*args, **kwargs)
        return dataclasses.replace(cls, relations=cls.relations[:-1])

    api.classify = drop_relation
    rejects(lambda: tasks._classify(api, m4), "dropped relation")

    api = tasks.Api()
    api.theta_haar = lambda *args, **kwargs: None  # returns instead of raising
    rejects(lambda: tasks._zero_coset(api, {}), "missing NumericalFailure")
    api = tasks.Api()
    api.classify = lambda *args, **kwargs: None
    rejects(lambda: tasks._ambiguous(api, spec_of("theta-orbit", "ambiguous")), "missing AmbiguousClassification")

    with tempfile.TemporaryDirectory(dir=os.path.join(BENCH, "out")) as workdir:
        runner = tasks.CliRunner(ROOT, workdir)
        runner.fails("exit3", ["zak", "--truncation", "1"], 3)
        rejects(lambda: runner.fails("exit3", ["zak", "--truncation", "1"], 2), "wrong exit code")
    print("checkers: wrong answers rejected, true answers accepted")


def check_seeds() -> None:
    for name, gen in inputs.GENERATORS.items():
        a, b, c = (json.dumps(gen(s), sort_keys=True) for s in (7, 7, 8))
        assert a == b, f"{name}: seed 7 regenerated different inputs"
        assert a != c, f"{name}: seeds 7 and 8 gave identical inputs"
    print("seeds: same seed identical, different seed different")


def smoke() -> None:
    for workload in ("zak-certify", "theta-orbit", "phase-cocycle", "cli"):
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "0", "--trace", "1"],
            cwd=ROOT, capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, f"{workload}: exit {proc.returncode}\n{proc.stderr[-2000:]}"
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"], f"{workload}: unexpected failures\n{proc.stdout[-2000:]}"
        print(f"smoke {workload}: {result['attempted']} tasks, {result['failed']} failed (known defects)")


def main() -> int:
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)
    check_checkers()
    check_seeds()
    if "--no-smoke" not in sys.argv:
        smoke()
    return 0


if __name__ == "__main__":
    sys.exit(main())
