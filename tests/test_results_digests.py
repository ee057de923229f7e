"""Pinned `results.csv` digests: a fixed spec writes the same bytes on every tree.

The pins live in `results_digests.json` and are written by `pin_digests.py`.
They depend on numpy's random streams and summation order, so they are
checked only against the numpy version they were pinned with; any other
version fails here, naming both, rather than skipping. No pinned spec runs
scipy: its one caller, the calibrator fit, is not part of any task.
"""

import json

import numpy as np

from pin_digests import DIGESTS_PATH, SPECS, digests


def test_results_and_spec_digests_match_the_pins(tmp_path):
    with open(DIGESTS_PATH) as fh:
        pinned = json.load(fh)
    assert np.__version__ == pinned["numpy"], (
        f"digests were pinned with numpy {pinned['numpy']}, this is numpy {np.__version__}"
    )
    assert set(pinned["specs"]) == set(SPECS)
    assert digests(tmp_path) == pinned["specs"]
