"""The repository's pytest settings report a failing test as a failure, and
CI runs the tier-1 command that ROADMAP.md names."""

import re
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
INI = ROOT / "pyproject.toml"


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


def test_ci_workflow_runs_the_tier1_command_of_the_roadmap():
    # compared as plain text: the workflow's last run step is the command
    # on ROADMAP.md's "Tier-1 verify" line, character for character
    roadmap = (ROOT / "ROADMAP.md").read_text()
    match = re.search(r"^\*\*Tier-1 verify:\*\* `([^`]+)`$", roadmap, re.MULTILINE)
    assert match, "ROADMAP.md has no **Tier-1 verify:** line"
    workflow = (ROOT / ".github" / "workflows" / "tier1.yml").read_text()
    runs = [line.strip()[len("run: "):] for line in workflow.splitlines() if line.strip().startswith("run: ")]
    assert runs and runs[-1] == match.group(1)
