"""API-surface tests: exception hierarchy, reprs, exports, multi-tag use."""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro import (
    BoundaryAwareEstimator,
    ChannelError,
    ConfigurationError,
    EstimationError,
    GeometryError,
    LandmarcEstimator,
    NearestReferenceEstimator,
    ReadingError,
    ReproError,
    SimulationError,
    SmoothingSpec,
    VIREConfig,
    VIREEstimator,
    WeightedCentroidEstimator,
    WeightedKnnEstimator,
    build_paper_deployment,
    paper_testbed_grid,
)
from repro.tracking.gated import GatedVIREEstimator

from .conftest import make_clean_environment


class TestExceptionHierarchy:
    @pytest.mark.parametrize("exc", [
        ConfigurationError, GeometryError, ChannelError, ReadingError,
        EstimationError, SimulationError,
    ])
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)
        assert issubclass(exc, Exception)

    def test_one_except_clause_catches_everything(self):
        with pytest.raises(ReproError):
            paper_testbed_grid().tag_position(99, 0)
        with pytest.raises(ReproError):
            VIREConfig(subdivisions=0)


class TestReprs:
    """Reprs are part of the debugging UX; they should name the knobs."""

    def test_estimator_reprs_informative(self, grid):
        cases = [
            (LandmarcEstimator(k=4), "k=4"),
            (WeightedKnnEstimator(metric="manhattan"), "manhattan"),
            (NearestReferenceEstimator(), "Nearest"),
            (WeightedCentroidEstimator(tau_db=3.0), "3"),
            (VIREEstimator(grid, VIREConfig(subdivisions=5)), "n=5"),
            (BoundaryAwareEstimator(grid), "extension"),
            (GatedVIREEstimator(grid), "v_max"),
        ]
        for obj, fragment in cases:
            assert fragment in repr(obj), (obj, fragment)

    def test_tag_and_reader_reprs(self):
        from repro import ActiveTag, Reader

        assert "ref" in repr(ActiveTag("a", (0, 0), is_reference=True))
        assert "r0" in repr(Reader("r0", (0, 0)))


class TestPublicExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_version_string(self):
        major, *_ = repro.__version__.split(".")
        assert int(major) >= 1

    def test_import_leaves_asyncio_unloaded(self):
        """The service loop is synchronous: importing the package must
        not pull in ``asyncio`` (import time and resident memory)."""
        probe = "import sys, repro; print('asyncio' in sys.modules)"
        src = os.path.dirname(os.path.dirname(repro.__file__))
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        ).stdout.strip()
        assert out == "False"


class TestMultiTagDeployment:
    """Several tracking tags sharing one testbed — the multi-asset case."""

    def test_three_assets_tracked_concurrently(self):
        truth = {
            "asset-a": (0.7, 0.9),
            "asset-b": (1.8, 1.4),
            "asset-c": (2.4, 2.3),
        }
        dep = build_paper_deployment(
            make_clean_environment(),
            tracking_tags=truth,
            seed=2,
            smoothing=SmoothingSpec(window=5),
        )
        dep.simulator.warm_up()
        dep.simulator.run_for(20.0)
        vire = VIREEstimator(dep.grid, VIREConfig(target_total_tags=900))
        for tag_id, pos in truth.items():
            reading = dep.simulator.reading_for(tag_id)
            err = vire.estimate(reading).error_to(pos)
            assert err < 0.35, (tag_id, err)

    def test_assets_do_not_perturb_each_other(self):
        """Adding a second tracking tag must not change the first tag's
        frozen-world mean readings (tags are passive w.r.t. the channel
        unless the interference model is enabled)."""
        env = make_clean_environment()
        solo = build_paper_deployment(
            env, tracking_tags={"a": (1.5, 1.5)}, seed=3
        )
        duo = build_paper_deployment(
            env, tracking_tags={"a": (1.5, 1.5), "b": (2.5, 0.5)}, seed=3
        )
        for dep in (solo, duo):
            dep.simulator.warm_up()
            dep.simulator.run_for(30.0)
        r_solo = solo.simulator.reading_for("a")
        r_duo = duo.simulator.reading_for("a")
        # Means agree to within the residual read scatter; exact equality
        # is not expected because the shared RNG consumes different draws.
        np.testing.assert_allclose(
            r_solo.tracking_rssi, r_duo.tracking_rssi, atol=0.5
        )
