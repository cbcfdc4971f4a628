#!/usr/bin/env python
"""Dense design-space contour map via the vectorised evaluator.

Renders Software-Flush's processing power over a fine (apl, shd) grid
as a character-shaded contour map — the full continuous version of the
paper's Figures 8-9, computed in milliseconds through
``repro.core.vectorized`` (numpy-vectorised MVA).

Run:  python examples/contour_map.py [processors]
"""

import sys

import numpy as np

from repro import DRAGON, SOFTWARE_FLUSH, BusSystem, WorkloadParams
from repro.core.vectorized import ParameterGrid, bus_surface_arrays

SHADES = " .:-=+*#%@"


def main() -> None:
    processors = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    rows, columns = 18, 60
    shd_axis = np.linspace(0.02, 0.42, rows)
    apl_axis = np.geomspace(1.0, 100.0, columns)
    grid = ParameterGrid.from_params(
        WorkloadParams.middle(),
        shd=shd_axis[:, None],
        apl=apl_axis[None, :],
    )

    power = bus_surface_arrays(
        SOFTWARE_FLUSH, grid, (processors,)
    ).processing_power[0]
    top = processors

    print(
        f"Software-Flush processing power on a {processors}-processor bus "
        f"({rows * columns} model evaluations)"
    )
    print(f"shade: '{SHADES[0]}'=0 ... '{SHADES[-1]}'={top} "
          f"(ideal = {processors})")
    print()
    print("  shd\\apl  " + "1" + " " * (columns // 2 - 4) + "~10" +
          " " * (columns // 2 - 4) + "100")
    for row in range(rows - 1, -1, -1):
        shades = "".join(
            SHADES[min(int(power[row, column] / top * (len(SHADES) - 1)),
                       len(SHADES) - 1)]
            for column in range(columns)
        )
        print(f"  {shd_axis[row]:6.3f}   {shades}")

    # Overlay: where does Software-Flush reach 85% of Dragon?
    bus = BusSystem()
    print()
    print("85%-of-Dragon frontier (minimum apl per sharing level):")
    for shd in (0.05, 0.15, 0.25, 0.35):
        params = WorkloadParams.middle(shd=shd)
        goal = 0.85 * bus.evaluate(DRAGON, params, processors).processing_power
        column_power = bus_surface_arrays(
            SOFTWARE_FLUSH,
            ParameterGrid.from_params(params, apl=apl_axis),
            (processors,),
        ).processing_power[0]
        viable = np.nonzero(column_power >= goal)[0]
        if viable.size:
            print(f"  shd={shd:4.2f}: apl >= {apl_axis[viable[0]]:6.1f}")
        else:
            print(f"  shd={shd:4.2f}: unreachable below apl=100")


if __name__ == "__main__":
    main()
