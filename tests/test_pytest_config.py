"""The suite's own pytest settings keep a failing property test to one failure."""
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

ROOT = Path(__file__).resolve().parents[1]


def test_a_failing_property_test_is_reported_and_the_session_goes_on(pytester):
    # hypothesis's failure report imports a module that warns on import; under
    # a blanket "error" filter that became an INTERNALERROR ending the session
    options = tomllib.loads((ROOT / "pyproject.toml").read_text())["tool"]["pytest"]
    filters = options["ini_options"]["filterwarnings"]
    pytester.makeini("[pytest]\nfilterwarnings =\n" + "".join(f"    {f}\n" for f in filters))
    pytester.makepyfile(
        """
        from hypothesis import given, strategies as st

        @given(st.integers())
        def test_fails(x):
            assert x < 5

        def test_passes():
            pass
        """
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
    result.assert_outcomes(failed=1, passed=1)
