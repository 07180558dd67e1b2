"""The repository's pytest settings report a failing test as a failure."""

import subprocess
import sys
import textwrap
from pathlib import Path

INI = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_a_failing_hypothesis_test_is_reported_as_failed(tmp_path):
    # on a failure hypothesis imports modules that warn on import; under the
    # repository's warning filters that must not end the pytest run in an
    # INTERNALERROR, which hides the name of the failing test
    (tmp_path / "test_broken.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_broken(n):
                assert n < 0
            """
        )
    )
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(INI), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_broken.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "FAILED test_broken.py::test_broken" in output
    assert "INTERNALERROR" not in output
