"""Documentation honesty: the tutorial's Python blocks must actually run.

Extracts every ```python fenced block from docs/tutorial.md and README.md
and executes them in one shared namespace per document (the tutorial is
written as a progressive session), and runs every script in examples/.
"""

import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FENCE = re.compile(r"```python\n(.*?)```", re.DOTALL)


def _python_blocks(path: pathlib.Path):
    return FENCE.findall(path.read_text())


@pytest.mark.parametrize("doc", ["docs/tutorial.md", "README.md"])
def test_documented_python_runs(doc):
    path = ROOT / doc
    blocks = _python_blocks(path)
    assert blocks, f"{doc} has no python examples?"
    namespace = {}
    for i, block in enumerate(blocks):
        try:
            exec(compile(block, f"{doc}[block {i}]", "exec"), namespace)
        except Exception as exc:  # pragma: no cover - failure reporting
            pytest.fail(f"{doc} block {i} failed: {exc}\n---\n{block}")


def test_design_md_mentions_every_benchmark():
    """The DESIGN.md experiment index must reference real bench files."""
    text = (ROOT / "DESIGN.md").read_text()
    for ref in re.findall(r"benchmarks/(test_\w+\.py)", text):
        assert (ROOT / "benchmarks" / ref).exists(), ref


def test_experiments_md_mentions_every_benchmark():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for ref in re.findall(r"benchmarks/(test_\w+\.py)", text):
        assert (ROOT / "benchmarks" / ref).exists(), ref


def test_every_benchmark_is_indexed_somewhere():
    """No orphan experiments: each benchmark appears in DESIGN.md or
    EXPERIMENTS.md."""
    docs = (ROOT / "DESIGN.md").read_text() + (ROOT / "EXPERIMENTS.md").read_text()
    for bench in sorted((ROOT / "benchmarks").glob("test_*.py")):
        assert bench.name in docs, f"{bench.name} not documented"


def test_readme_mentions_all_examples():
    readme = (ROOT / "README.md").read_text()
    for example in sorted((ROOT / "examples").glob("*.py")):
        assert example.name in readme, f"{example.name} missing from README"


@pytest.mark.parametrize(
    "example", sorted(p.name for p in (ROOT / "examples").glob("*.py"))
)
def test_example_runs(example):
    """Each script in examples/ runs to completion as documented."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "examples" / example)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
