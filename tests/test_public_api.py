"""The public API surface: everything advertised is importable and sane."""

import importlib

import pytest

import repro


class TestTopLevelApi:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    @pytest.mark.parametrize(
        "module",
        [
            "repro.des",
            "repro.machine",
            "repro.mpi",
            "repro.radar",
            "repro.stap",
            "repro.core",
            "repro.scheduling",
            "repro.experiments",
            "repro.cli",
        ],
    )
    def test_subpackage_all_resolves(self, module):
        mod = importlib.import_module(module)
        for name in getattr(mod, "__all__", []):
            assert hasattr(mod, name), f"{module}.{name}"

    def test_version_string(self):
        major, minor, patch = repro.__version__.split(".")
        assert all(part.isdigit() for part in (major, minor, patch))


class TestTagSpaces:
    def test_pipeline_tags_below_tag_limit(self):
        """Pipeline edge tags stay below the lowered matcher's packed-key
        bound, the one that binds by default, for any plausible run."""
        from repro.core.redistribution import TAG_CODES, TAG_STRIDE, edge_tag
        from repro.des.backends import TAG_LIMIT

        max_cpis = 10_000
        assert max(edge_tag(name, max_cpis) for name in TAG_CODES) < TAG_LIMIT
        assert TAG_STRIDE * max_cpis < TAG_LIMIT

    def test_pipeline_rejects_runs_past_the_tag_limit(self):
        """The longest run whose tags fit is accepted; one CPI more is
        refused before simulating, not mid-run by the matcher."""
        from repro import CASE3, STAPParams, STAPPipeline
        from repro.des.backends import TAG_LIMIT
        from repro.errors import ConfigurationError

        # Last tag: (num_cpis - 1) * TAG_STRIDE + 8 (the pc_to_cfar code).
        assert (262_144 - 1) * 16 + 8 < TAG_LIMIT <= 262_144 * 16 + 8
        STAPPipeline(STAPParams.small(), CASE3, num_cpis=262_144)
        with pytest.raises(ConfigurationError, match="tags up to"):
            STAPPipeline(STAPParams.small(), CASE3, num_cpis=262_145)
        # The reference checker's matcher has no packed-key bound.
        STAPPipeline(STAPParams.small(), CASE3, num_cpis=262_145,
                     backend="python")

    def test_edge_tags_unique_per_cpi(self):
        from repro.core.redistribution import TAG_CODES, edge_tag

        tags = {edge_tag(name, cpi) for name in TAG_CODES for cpi in range(50)}
        assert len(tags) == len(TAG_CODES) * 50
