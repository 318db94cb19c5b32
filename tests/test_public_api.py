"""Sanity of the public API surface.

These tests protect downstream users: everything advertised in
``__all__`` must exist, and the quickstart from the README must run.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src"

PACKAGES = [
    "repro",
    "repro.components",
    "repro.components.kernels",
    "repro.components.md",
    "repro.configs",
    "repro.core",
    "repro.coschedule",
    "repro.des",
    "repro.dtl",
    "repro.experiments",
    "repro.faults",
    "repro.monitoring",
    "repro.platform",
    "repro.reschedule",
    "repro.runtime",
    "repro.scheduler",
    "repro.search",
    "repro.service",
    "repro.util",
    "repro.verify",
]


class TestApiSurface:
    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_exports_resolve(self, package):
        mod = importlib.import_module(package)
        assert hasattr(mod, "__all__"), f"{package} lacks __all__"
        for name in mod.__all__:
            assert hasattr(mod, name), f"{package}.{name} missing"

    @pytest.mark.parametrize("package", PACKAGES)
    def test_all_is_sorted(self, package):
        mod = importlib.import_module(package)
        assert list(mod.__all__) == sorted(mod.__all__), (
            f"{package}.__all__ is not sorted"
        )

    @pytest.mark.parametrize("package", PACKAGES)
    def test_module_docstrings_present(self, package):
        mod = importlib.import_module(package)
        assert mod.__doc__ and len(mod.__doc__.strip()) > 40

    def test_version(self):
        import repro

        assert repro.__version__


class TestRuntimeImports:
    def test_reference_implementations_stay_off_the_runtime_path(self):
        # repro.search.reference is a test and benchmark oracle: no
        # runtime package may load it (a fresh process, since the test
        # suite itself imports it)
        code = (
            "import sys\n"
            "import repro.configs, repro.scheduler, repro.search\n"
            "import repro.service.api, repro.cli\n"
            "print('repro.search.reference' in sys.modules)\n"
        )
        path = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestReadmeQuickstart:
    def test_quickstart_snippet_runs(self):
        from repro import IndicatorStage, run_configuration, table2_config

        result = run_configuration(table2_config("C1.5"), n_steps=4)
        assert result.ensemble_makespan > 0
        for member in result.members:
            assert member.makespan > 0
            assert member.efficiency > 0
        stages = [
            IndicatorStage.USAGE,
            IndicatorStage.ALLOCATION,
            IndicatorStage.PROVISIONING,
        ]
        assert result.objective(stages) > 0

    def test_run_ensemble_docstring_example(self):
        from repro.runtime import run_ensemble
        from repro.runtime.placement import pack_members_per_node
        from repro.runtime.spec import EnsembleSpec, default_member

        spec = EnsembleSpec(
            "demo",
            (default_member("em1", n_steps=3),
             default_member("em2", n_steps=3)),
        )
        result = run_ensemble(spec, pack_members_per_node(spec))
        assert result.ensemble_makespan > 0
