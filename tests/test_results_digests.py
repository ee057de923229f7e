"""Pinned `results.csv` digests: a fixed spec writes the same bytes on every tree.

The pins live in `results_digests.json` and are written by `pin_digests.py`.
They depend on numpy's random streams and summation order, and the
`auroc_correlation` pin also on scipy's `rankdata`, so they are checked only
against the numpy and scipy versions they were pinned with; any other version
fails here, naming both, rather than skipping.
"""

import json

import numpy as np
import scipy

from pin_digests import DIGESTS_PATH, SPECS, digests


def test_results_and_spec_digests_match_the_pins(tmp_path):
    with open(DIGESTS_PATH) as fh:
        pinned = json.load(fh)
    for module in (np, scipy):
        name = module.__name__
        assert module.__version__ == pinned[name], (
            f"digests were pinned with {name} {pinned[name]}, this is {name} {module.__version__}"
        )
    assert set(pinned["specs"]) == set(SPECS)
    assert digests(tmp_path) == pinned["specs"]
