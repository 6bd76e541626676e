"""Every demo script runs to completion from a clean working directory."""

import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

import reorderchan
from test_cli import child_env

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) >= 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_runs(demo, tmp_path):
    done = subprocess.run(
        [sys.executable, str(demo)],
        cwd=tmp_path,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_public_api_covers_demos_and_readme():
    public = reorderchan.__all__
    assert len(set(public)) == len(public)
    for name in public:
        assert getattr(reorderchan, name, None) is not None, name
    for demo in DEMOS:
        for node in ast.walk(ast.parse(demo.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "reorderchan":
                missing = {alias.name for alias in node.names} - set(public)
                assert not missing, (demo.name, missing)
    readme = (ROOT / "README.md").read_text()
    inside = readme.split("## What is inside", 1)[1].split("\n## ", 1)[0]
    undocumented = set(public) - set(re.findall(r"`(\w+)`", inside))
    assert not undocumented, undocumented
