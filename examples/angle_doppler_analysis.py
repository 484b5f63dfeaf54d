#!/usr/bin/env python
"""Map the clutter ridge and the adaptive nulls in the angle-Doppler plane.

Prints an ASCII angle-Doppler power map of a synthetic CPI — the diagonal
clutter ridge airborne radars fight — then shows the adapted spatial
pattern of a hard-bin weight vector placing its null on the ridge at that
bin's Doppler while holding the mainbeam.

Run:  python examples/angle_doppler_analysis.py
"""

import numpy as np

from repro import CPIStream, RadarScenario, STAPParams
from repro.stap.angle_doppler import adapted_pattern, angle_doppler_spectrum
from repro.stap.doppler import doppler_filter
from repro.stap.hard_weights import HardWeightComputer, extract_hard_training
from repro.stap.plan import default_plan

GLYPHS = " .:-=+*#%@"


def ascii_map(spectrum_db, floor_db=-50.0):
    rows = []
    for row in spectrum_db:
        cells = np.clip((row - floor_db) / -floor_db, 0.0, 0.999)
        rows.append("".join(GLYPHS[int(c * len(GLYPHS))] for c in cells))
    return rows


def main() -> None:
    params = STAPParams.small()
    scenario = RadarScenario(clutter_to_noise_db=40.0, targets=(), seed=3)
    cube = CPIStream(params, scenario).cube(0)

    angles = np.linspace(-60.0, 60.0, 25)
    spectrum, angles, dopplers = angle_doppler_spectrum(cube, angles_deg=angles)
    spectrum_db = 10 * np.log10(spectrum / spectrum.max())

    print("angle-Doppler power map (rows: angle -60..+60 deg; "
          "cols: Doppler -1/2..+1/2)")
    for angle, row in zip(angles, ascii_map(spectrum_db)):
        print(f"{angle:+6.0f}  {row}")
    print("        ^ the diagonal ridge: clutter Doppler = 0.5 sin(angle)")
    print()

    # Train hard weights, then show the adapted pattern for one hard bin.
    computer = HardWeightComputer(default_plan(params))
    for cpi in range(3):
        stag = doppler_filter(CPIStream(params, scenario).cube(cpi))
        computer.update(extract_hard_training(stag, params))
    weights = computer.compute_weights()

    bin_pos = 2  # a hard bin just off zero Doppler
    bin_id = int(params.hard_bins[bin_pos])
    ridge_angle = np.rad2deg(
        np.arcsin(np.clip(2.0 * bin_id / params.num_doppler, -1, 1))
    )
    pattern, pattern_angles = adapted_pattern(weights[0, bin_pos, :, 0], params)
    pattern_db = 10 * np.log10(np.maximum(pattern, 1e-12))

    print(f"adapted spatial pattern, hard Doppler bin {bin_id} "
          f"(ridge crosses near {ridge_angle:+.0f} deg):")
    for angle in range(-60, 61, 10):
        idx = int(np.argmin(np.abs(pattern_angles - angle)))
        bar = "#" * max(0, int((pattern_db[idx] + 60) / 2))
        marker = " <- ridge" if abs(angle - ridge_angle) < 6 else ""
        print(f"{angle:+6d}  {pattern_db[idx]:7.1f} dB  {bar}{marker}")


if __name__ == "__main__":
    main()
