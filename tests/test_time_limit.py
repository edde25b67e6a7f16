import subprocess
import sys
import time
from pathlib import Path

HANGING_TESTS = """\
from hypothesis import given, settings, strategies as st


def test_hang():
    while True:
        pass


@settings(deadline=None, database=None)
@given(st.integers())
def test_hang_given(n):
    while True:
        pass


def test_passes():
    pass
"""


def test_a_hanging_test_fails_at_its_time_limit(tmp_path):
    conftest = Path(__file__).with_name("conftest.py").read_text()
    short = conftest.replace("TEST_TIME_LIMIT_S = 300", "TEST_TIME_LIMIT_S = 1")
    assert short != conftest
    (tmp_path / "conftest.py").write_text(short)
    (tmp_path / "test_hang.py").write_text(HANGING_TESTS)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "2 failed, 1 passed" in proc.stdout, proc.stdout
    assert proc.stdout.count("time limit of 1 s") >= 2, proc.stdout
    assert elapsed < 20
