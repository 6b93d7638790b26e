"""The entry points outside the CLI's own tests: the toy-corpus generator, `python -m` and the package.

`tools/gen_toy_corpus.py` regenerates the bundled toy corpus byte for byte,
and `python -m recteacher` runs the CLI. Both run in a subprocess from the
repository root, with `src` on the import path. The package setuptools
builds carries every prompt template, and its CLI runs from the build alone.
"""

from __future__ import annotations

import os
import subprocess
import sys

from conftest import REPO_ROOT, TOY_DIR

from recteacher.prompts import TEMPLATE_FILES


def run(*argv):
    """`python *argv` from the repository root, with `src` first on the import path."""
    path = [str(REPO_ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    return subprocess.run([sys.executable, *argv], cwd=REPO_ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


def test_the_generator_reproduces_the_bundled_toy_corpus(tmp_path):
    done = run("tools/gen_toy_corpus.py", "--out", str(tmp_path))
    assert done.returncode == 0, done.stderr
    names = sorted(path.name for path in TOY_DIR.glob("*.jsonl"))
    assert names == ["items.jsonl", "reviews.jsonl", "users.jsonl"]
    assert sorted(path.name for path in tmp_path.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (TOY_DIR / name).read_bytes(), name


def test_python_dash_m_runs_the_cli():
    done = run("-m", "recteacher", "--help")
    assert done.returncode == 0, done.stderr
    assert "run-teacher" in done.stdout


def test_the_built_package_carries_every_template(tmp_path):
    done = run("-c", "from setuptools import setup; setup()", "egg_info", "--egg-base", str(tmp_path),
               "build_py", "--build-lib", str(tmp_path / "lib"))
    assert done.returncode == 0, done.stderr
    built = sorted(path.name for path in (tmp_path / "lib" / "recteacher" / "templates").glob("*.txt"))
    assert tuple(built) == TEMPLATE_FILES
    done = subprocess.run([sys.executable, "-m", "recteacher", "--help"], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": str(tmp_path / "lib")},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "run-teacher" in done.stdout
