"""Suite-wide fixtures, built on the shared factories in tests/fixtures.py.

These replace the per-module copies of the same recipes that used to
be scattered across ``tests/sgx``, ``tests/core`` and ``benchmarks``:
every test that just needs "an authority", "a platform", "an author
key" or "a fresh accountant" can take the fixture instead of
re-deriving it.  Modules that need a *specifically* seeded world keep
calling the ``make_*`` factories with their own seed.
"""

import pytest
from hypothesis import HealthCheck, settings
from hypothesis.database import DirectoryBasedExampleDatabase

from tests.fixtures import (
    make_accountant,
    make_author_key,
    make_authority,
    make_platform,
)

# Hypothesis profiles, registered once for the whole suite.  ``default``
# keeps the suite derandomized (same examples every run); select another
# with ``pytest --hypothesis-profile=ci|nightly``.  Conformance suites
# scale their budgets with ``max_examples`` (tests/conformance/harness.py),
# so ``ci`` doubles them and ``nightly`` runs them at 20x with a random
# seed, saving every falsifying example to the ``.hypothesis/`` database
# so the next run replays it first.
settings.register_profile(
    "default", derandomize=True, max_examples=60, print_blob=True
)
settings.register_profile(
    "ci",
    settings.get_profile("default"),
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.register_profile(
    "nightly",
    settings.get_profile("ci"),
    derandomize=False,
    database=DirectoryBasedExampleDatabase(".hypothesis/examples"),
    max_examples=1200,
)
settings.load_profile("default")


@pytest.fixture(scope="session")
def author_key():
    """One deterministic enclave-author RSA key for the whole run."""
    return make_author_key()


@pytest.fixture()
def authority():
    """A fresh attestation authority (stateful: per-test isolation)."""
    return make_authority()


@pytest.fixture()
def platform(authority):
    """A fresh platform named host-a, quoting enclave registered."""
    return make_platform("host-a", authority)


@pytest.fixture()
def accountant():
    """A fresh, empty cost accountant."""
    return make_accountant()
