"""Byte identity of cube synthesis: frozen SHA-256 digests of ``generate_cpi``.

Every golden and identity test downstream starts from a synthesized cube,
so a change to how :func:`~repro.radar.datacube.generate_cpi` computes the
cube must leave its bytes alone — signed zeros included.  The digests
below were taken from the two-pass synthesis (noise first into a zeroed
cube, then clutter, jammers and targets added on top) and pin:

* three scales, plus the tiny shape held in complex128 (no final cast);
* a noise-only scenario, the standard one with a target whose waveform
  runs off the last range cell, a jammed one, and two silent ones
  (``noise_power=0``) with and without clutter, whose cubes are all +0;
* two (CPI, azimuth) pairs, so both the noise and the clutter draws move.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.radar import (
    JammerTruth,
    RadarScenario,
    STAPParams,
    TargetTruth,
    generate_cpi,
)

SCALES = {
    "tiny": STAPParams.tiny(),
    "tiny-c128": dataclasses.replace(STAPParams.tiny(), dtype="complex128"),
    "small": STAPParams.small(),
    "paper": STAPParams.paper(),
}
CPIS = ((0, 0), (5, 1))


def scenario(name: str, params: STAPParams) -> RadarScenario:
    last = params.num_ranges - 2  # the waveform is cut off by the cube's end
    if name == "benign":
        return RadarScenario.benign(seed=7)
    if name == "standard":
        return RadarScenario.standard(seed=7).with_targets([
            TargetTruth(range_cell=last, normalized_doppler=0.25,
                        angle_deg=3.0, snr_db=10.0)])
    if name == "jammer":
        return RadarScenario(
            clutter_to_noise_db=30.0,
            jammers=(JammerTruth(angle_deg=-20.0, jnr_db=25.0),
                     JammerTruth(angle_deg=35.0, jnr_db=15.0)),
            targets=(TargetTruth(range_cell=3, normalized_doppler=-0.2,
                                 angle_deg=0.0, snr_db=5.0),),
            seed=7)
    if name == "silent":
        return RadarScenario(clutter_to_noise_db=-300.0, num_clutter_patches=1,
                             noise_power=0.0, seed=7)
    if name == "silent-clutter":
        return RadarScenario(clutter_to_noise_db=40.0, noise_power=0.0, seed=7)
    raise ValueError(name)


SCENARIOS = ("benign", "standard", "jammer", "silent", "silent-clutter")


def case_keys():
    return [f"{scale}/{name}/{cpi}-{azimuth}"
            for scale in SCALES for name in SCENARIOS for cpi, azimuth in CPIS]


def digest(key: str) -> str:
    scale, name, pair = key.split("/")
    params = SCALES[scale]
    cpi, azimuth = (int(part) for part in pair.split("-"))
    cube = generate_cpi(params, scenario(name, params), cpi, azimuth)
    return hashlib.sha256(cube.data.tobytes()).hexdigest()


DIGESTS = {
    "tiny/benign/0-0":
        "3ba96aa4bc0a0ccedb6629a5e2f775150a1b91ba852304a67f48622a8bdbfb4a",
    "tiny/benign/5-1":
        "58006d50e9092a9e428a65f076e4bf1c2a1c887a676c27f0be5884eee0abf287",
    "tiny/standard/0-0":
        "68fd957c5e9a5c2b59556f331092d12731cd72de252fea16299197ae591b6454",
    "tiny/standard/5-1":
        "0840454703c6ad81d64f5191b9a6ebd8100123ce82f2ce9b38b9a9173a9336cd",
    "tiny/jammer/0-0":
        "69f70413ab15fcf5b65ff97a81ba11d6d7af03d9c9ad9f540a3120883ea00bd7",
    "tiny/jammer/5-1":
        "b1313666bced4a0217bfea89897db489ab1902d02a7cd55b1951c1a3079cd24c",
    "tiny/silent/0-0":
        "de676bae28a480011d3d012db14bef539324e62a841a9627863c689bea168af3",
    "tiny/silent/5-1":
        "de676bae28a480011d3d012db14bef539324e62a841a9627863c689bea168af3",
    "tiny/silent-clutter/0-0":
        "de676bae28a480011d3d012db14bef539324e62a841a9627863c689bea168af3",
    "tiny/silent-clutter/5-1":
        "de676bae28a480011d3d012db14bef539324e62a841a9627863c689bea168af3",
    "tiny-c128/benign/0-0":
        "98b0a744ae7305f41043cd4073a11f3b3b8225e8ec1e98eba471033a51511d89",
    "tiny-c128/benign/5-1":
        "fe6d5f3a365a1a810c797a8628344bc78deb1a995a153e1c70771c5ba541776e",
    "tiny-c128/standard/0-0":
        "d8b7dd20d48576fd1fbc2adf40ee5c76bc2249a9051fd681eaf37d1c995f0082",
    "tiny-c128/standard/5-1":
        "3caa840ba494452f0b2c92a850eb104c09b880f39fbe21b5e57eb9573f9a70db",
    "tiny-c128/jammer/0-0":
        "6cb5ec7ad762140663936843ec37cab5a03b53df5f331e0188fef544a4ca2183",
    "tiny-c128/jammer/5-1":
        "17465061bce4fb4bc901d561d496d43fe1a915a0cd95207a051a2464f9a17aad",
    "tiny-c128/silent/0-0":
        "2aae7dc846aaf25f1cadf55f1666862046c6db9d65d84bdc07fa039dac405606",
    "tiny-c128/silent/5-1":
        "2aae7dc846aaf25f1cadf55f1666862046c6db9d65d84bdc07fa039dac405606",
    "tiny-c128/silent-clutter/0-0":
        "2aae7dc846aaf25f1cadf55f1666862046c6db9d65d84bdc07fa039dac405606",
    "tiny-c128/silent-clutter/5-1":
        "2aae7dc846aaf25f1cadf55f1666862046c6db9d65d84bdc07fa039dac405606",
    "small/benign/0-0":
        "3f9bba5cc6bb4c911315c25e9f15cd1f498ed9e892293bf25c9542a2e6f42e5e",
    "small/benign/5-1":
        "5fee1d2ae11fcbebf72050dbda6d85d5a2f84b6a6a2143ad99e52806b153c12a",
    "small/standard/0-0":
        "c954b6b75f13e88379e1aa63720ee7514fadbd9ca289fc0eb407f36ff14c83a6",
    "small/standard/5-1":
        "529da938868bbce8d2bdf14002bd1344839584c86355619808d7eec47d62d41b",
    "small/jammer/0-0":
        "09e0df9f38bcc727da07fd3c3eb8889aa387e12e679c62d50d2b4cb641895dc4",
    "small/jammer/5-1":
        "db8b66124193636dbc1bba649860eb84620a4f77cb57ed9082a1d26c88cd5796",
    "small/silent/0-0":
        "8a39d2abd3999ab73c34db2476849cddf303ce389b35826850f9a700589b4a90",
    "small/silent/5-1":
        "8a39d2abd3999ab73c34db2476849cddf303ce389b35826850f9a700589b4a90",
    "small/silent-clutter/0-0":
        "8a39d2abd3999ab73c34db2476849cddf303ce389b35826850f9a700589b4a90",
    "small/silent-clutter/5-1":
        "8a39d2abd3999ab73c34db2476849cddf303ce389b35826850f9a700589b4a90",
    "paper/benign/0-0":
        "f00bde7232f9fd397c50a712bb9ab1ab3855e764752a46b2d2017883a0917646",
    "paper/benign/5-1":
        "e3f65af63532051042c23145c898fa5efd18ac74be5de93da7a47b84a4e2fe84",
    "paper/standard/0-0":
        "a6a99ba99313fa20b7d13d496027687d45db45cb2a9e95f7867d3793e00ba018",
    "paper/standard/5-1":
        "e71b4b76167c71f3e81ed49ae5654a058de9552c1d3f40c41af667be692e7d47",
    "paper/jammer/0-0":
        "5bf1695738ddab6d709d1dafee1f53e0cdec9695a4c6ee4241345e61eab5b036",
    "paper/jammer/5-1":
        "f6bdbbd80ddc2038b0c008476ef51106009cefe978a92b94f493adada00ffdf0",
    "paper/silent/0-0":
        "2daeb1f36095b44b318410b3f4e8b5d989dcc7bb023d1426c492dab0a3053e74",
    "paper/silent/5-1":
        "2daeb1f36095b44b318410b3f4e8b5d989dcc7bb023d1426c492dab0a3053e74",
    "paper/silent-clutter/0-0":
        "2daeb1f36095b44b318410b3f4e8b5d989dcc7bb023d1426c492dab0a3053e74",
    "paper/silent-clutter/5-1":
        "2daeb1f36095b44b318410b3f4e8b5d989dcc7bb023d1426c492dab0a3053e74",
}


@pytest.mark.parametrize("key", case_keys())
def test_cube_bytes_are_frozen(key):
    assert digest(key) == DIGESTS[key]


def test_silent_cubes_are_positive_zero():
    """Noise added into a zeroed cube turns ``-0.0`` into ``+0.0``, so
    every silent sample is +0.0; writing the scaled noise (or a zero
    clutter product) straight into the cube would keep ``-0.0``.  This
    holds whatever sign the BLAS gives a zero product."""
    for name in ("silent", "silent-clutter"):
        params = SCALES["tiny-c128"]
        data = generate_cpi(params, scenario(name, params), 5, 1).data
        assert not data.view(np.int64).any()


def test_zero_clutter_skips_the_product(monkeypatch):
    """With zero noise power the clutter amplitudes are zero.  A BLAS may
    return that product as ``-0.0``; the cube must still be +0.0."""
    def negative_zero_matmul(a, b, out):
        out[...] = complex(-0.0, -0.0)
        return out

    monkeypatch.setattr(np, "matmul", negative_zero_matmul)
    params = SCALES["tiny-c128"]
    data = generate_cpi(params, scenario("silent-clutter", params), 5, 1).data
    assert not data.view(np.int64).any()
