"""run_sweep against the whole-grid reference raster at the 4096^2 grid cap,
where the tier-1 tests stop at 1024^2:

    PYTHONPATH=src python3 -W error::RuntimeWarning tests/check_grid_cap.py

The three-band layout of tests/cli_outputs.sh at eps = 1/128 and 1/100, each
checked by test_homogenize.assert_matches_reference with the tier-1 bounds.
The reference raster peaks at about 250 MB.
"""

import math

import numpy as np

from lamlab.energy import SlipSystem
from lamlab.homogenize import GRID_CAP, MicrostructureSpec, run_sweep
from test_homogenize import assert_matches_reference

BANDS = ((0.2, 0.3), (-0.5, 0.6), (0.4, 1.0))
EPS_LIST = (1 / 128, 1 / 100)


def main():
    slip = SlipSystem.from_theta(math.pi / 4, 0.5)
    reports = run_sweep(slip, np.eye(2), BANDS, EPS_LIST, laminate_period=0.25)
    for eps, rep in zip(EPS_LIST, reports):
        # the default 8 cells per feature ask for more than the cap at both
        spec = MicrostructureSpec(slip=slip, rotation=np.eye(2), gammas=BANDS, epsilon=eps,
                                  laminate_period=0.25, grid_n=GRID_CAP)
        assert_matches_reference(spec, rep)
        print(f"eps = {eps!r} on {GRID_CAP}^2: e_eps {rep.e_eps!r}, "
              f"flagged_area {rep.flagged_area!r} match the reference raster")


if __name__ == "__main__":
    main()
