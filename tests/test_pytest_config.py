import os
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_runs_after_the_failure():
    pass
'''


def test_failing_property_test_leaves_the_rest_of_the_run_reported(tmp_path):
    # under the project's warning filters, a failing hypothesis test must
    # fail alone, not end the run with INTERNALERROR
    (tmp_path / "test_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTEST_")}
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_property.py"],
        capture_output=True, text=True, cwd=tmp_path, env=env, timeout=300,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert proc.returncode == 1
    assert "1 failed, 1 passed" in proc.stdout
