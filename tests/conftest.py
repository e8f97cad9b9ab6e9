"""Shared fixtures. pytest puts `src` on sys.path (`pythonpath` in
pyproject.toml), so a bare `pytest` in a checkout imports saddle_lab without
an install."""

import pytest


@pytest.fixture(scope="session")
def verify_command(tmp_path_factory):
    """One `saddle-lab verify` run on the default seed, shared by the tests
    that check it; it writes into a directory that does not exist yet.
    Returns the exit code and the output directory."""
    from saddle_lab import cli

    out = tmp_path_factory.mktemp("verify") / "not" / "yet"
    return cli.main(["verify", "--out-dir", str(out)]), out
