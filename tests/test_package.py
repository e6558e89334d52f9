"""Package-wide contracts: the public surface, one wording for the checks
that several entry points share, and the independence of the references
in ``reference.py``."""

import ast
import inspect
from pathlib import Path

import pytest

import mexmoments
from mexmoments import MexParams, ValidationError, asymptotics, conjectures, qseries

PUBLIC_NAMES = [
    "BACKEND", "MexParams", "MomentSequence", "ResourceCapError", "ValidationError",
    "__version__", "moment_sequence", "partition_numbers", "sigma_gf_coeffs", "sigma_oracle",
    "varsigma_gf_coeffs", "varsigma_oracle",
]


def test_public_surface_is_the_three_routes():
    assert sorted(mexmoments.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(mexmoments, name) is not None


def test_reference_imports_nothing_from_the_package():
    # Criteria 1-3 are an independent route only while the references
    # share no code with the package they check.
    tree = ast.parse((Path(__file__).parent / "reference.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "math" in imported  # the walk does see the imports
    assert not [name for name in imported if name.split(".")[0] == "mexmoments"]


P = MexParams(1, 2, 1, 1)
BELOW = "truncation order 10 is below the largest requested n=50"


@pytest.mark.parametrize("call", [
    lambda: qseries.truncation_order(10, 50),
    lambda: asymptotics.exact_over_asymptotic("sigma", P, 50, order=10),
    lambda: asymptotics.corollary_ratio("sigma", P, 2, 50, order=10),
])
def test_one_truncation_message(call):
    with pytest.raises(ValidationError, match=f"^{BELOW}$"):
        call()


def test_truncation_order_defaults_to_the_largest_n():
    assert qseries.truncation_order(None, 50) == 50
    assert qseries.truncation_order(50, 50) == 50
    assert qseries.truncation_order(80, 50) == 80


def test_scanners_compute_to_their_range_and_moment_sequence_needs_an_order():
    # The scanners compute exactly to n_hi; no caller chooses an order for them.
    for scan in (conjectures.scan_log_concavity, conjectures.scan_bias):
        assert "order" not in inspect.signature(scan).parameters
    order = inspect.signature(qseries.moment_sequence).parameters["order"]
    assert order.default is inspect.Parameter.empty
    assert not hasattr(qseries, "DEFAULT_TRUNCATION")
