import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from elkbc.closure import compute_closure
from elkbc.reasoner import classify
from elkbc.toy import golden_theory


@pytest.fixture(scope="session")
def golden():
    """The worked single-protein function-prediction example, classified and
    with both closure modes."""
    theory = golden_theory()
    index, hierarchy, _ = classify(theory)
    materialized = compute_closure(theory, index, hierarchy)
    oracle = compute_closure(theory, index, hierarchy, mode="oracle")
    return {
        "theory": theory,
        "index": index,
        "hierarchy": hierarchy,
        "materialized": materialized,
        "oracle": oracle,
    }


def concept_ids(theory, *names):
    return tuple(theory.signature.concepts.id_of(n) for n in names)
