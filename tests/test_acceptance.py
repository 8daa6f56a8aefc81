"""Acceptance suite: one test per built-in check, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v`` or, equivalently, via the
``spdcsim selftest`` subcommand.
"""

import pytest

from spdcsim.selftest import CHECKS, check_name


@pytest.mark.parametrize("check", CHECKS, ids=check_name)
def test_acceptance(check):
    passed, detail = check()
    print(f"{'PASS' if passed else 'FAIL'}  {check_name(check)}: {detail}")
    assert passed, f"{check_name(check)}: {detail}"
