"""Synthetic airborne-radar data substrate.

The paper processed live data from the RTMCARM L-band phased array (16
channels, 128 pulses, 512 range gates).  We do not have those tapes, so this
package generates statistically-equivalent coherent processing interval
(CPI) data cubes: angle-Doppler-coupled ground clutter (the clutter ridge an
airborne radar sees), optional barrage jammers, receiver noise, and injected
point targets spread by the transmit waveform — everything the STAP chain's
code paths need (easy/hard Doppler split, mainbeam constraint, recursive
training over revisits).

Public surface: :class:`STAPParams` (algorithm shape), :class:`RadarScenario`
(physics), :class:`CPIDataCube` / :class:`CPIStream` (data), plus steering
vector and window utilities.
"""

from repro.radar.parameters import STAPParams
from repro.radar.scenario import RadarScenario, TargetTruth, JammerTruth
from repro.radar.geometry import (
    spatial_steering,
    temporal_steering,
    steering_matrix,
    beam_angles,
)
from repro.radar.windows import window_by_name, WINDOWS
from repro.radar.waveform import lfm_chirp, matched_filter_frequency_response
from repro.radar.datacube import CPIDataCube, CPIStream, generate_cpi

__all__ = [
    "STAPParams",
    "RadarScenario",
    "TargetTruth",
    "JammerTruth",
    "spatial_steering",
    "temporal_steering",
    "steering_matrix",
    "beam_angles",
    "window_by_name",
    "WINDOWS",
    "lfm_chirp",
    "matched_filter_frequency_response",
    "CPIDataCube",
    "CPIStream",
    "generate_cpi",
]
