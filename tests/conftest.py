import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import cavepoly
from cavepoly import GeneratorConfig, Polymatroid, random_polymatroid
from cavepoly.genverify import STRATEGIES


@pytest.fixture
def running():
    """The worked example used throughout: {(0,3), (1,2), (2,1)}."""
    return Polymatroid([(0, 3), (1, 2), (2, 1)])


def instance_mix(count, seed=0, ps=(1, 2, 3), max_rank=4, max_cage_entry=3):
    """Deterministic stream of generated instances, cycling dimensions
    fastest and generation strategies next."""
    out = []
    for i in range(count):
        cfg = GeneratorConfig(
            seed=seed + i,
            p=ps[i % len(ps)],
            max_rank=max_rank,
            max_cage_entry=max_cage_entry,
            strategy=STRATEGIES[(i // len(ps)) % len(STRATEGIES)],
        )
        out.append(random_polymatroid(cfg))
    return out


def run_bounded(code, args=(), stdin=""):
    """(status, stdout, stderr) of ``python -c code *args`` in a child
    process that imports this checkout's cavepoly, under a 10 s timeout and
    a 2 GB address-space limit (``RLIMIT_AS``): a step that allocates or
    loops by the size of an entry fails within seconds."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = {**os.environ, "PYTHONPATH": str(Path(cavepoly.__file__).resolve().parent.parent)}
    proc = subprocess.run([sys.executable, "-c", code, *args], input=stdin, capture_output=True, text=True,
                          timeout=10, preexec_fn=limit, env=env)
    return proc.returncode, proc.stdout, proc.stderr
