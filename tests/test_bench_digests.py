"""The benchmark's artifacts are pinned, so a change to what it builds fails here.

For each workload this runs `perfbench/run.py --workload W --seed 1 --seconds 0
--digests` in a subprocess, which builds one set-up and one batch and prints
their artifact digests as one JSON line. The sha256 of that last stdout line,
newline included (what `| tail -1 | sha256sum` prints), must equal the pin. A
change that alters an artifact on purpose updates the pin here, as it does
`DIGESTS` in test_toy_digests.py.
"""

from __future__ import annotations

import hashlib
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

DIGEST_LINE_SHA256 = {
    "teacher-latency": "a62418aa2d2a5fd44765f84f632f1f7255adfcd457d8f053c52a106b791c0e8e",
    "teacher-ondemand": "840987c38f35d18fc49b5c776c05171091c362cd6985206f959470f96b55a568",
}


@pytest.mark.parametrize("workload", sorted(DIGEST_LINE_SHA256))
def test_the_benchmark_builds_the_pinned_artifacts(workload):
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--digests"],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    last = run.stdout.splitlines()[-1] + "\n"
    assert hashlib.sha256(last.encode("utf-8")).hexdigest() == DIGEST_LINE_SHA256[workload], last
