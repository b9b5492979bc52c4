"""Repository-wide quality gates: API docs, registry hygiene, goldens.

These tests pin properties of the codebase itself rather than of any
one module: every public callable is documented, the family registry is
complete and well-formed, and the CLI's table output matches golden
cells (so a regression anywhere in the derivation chain fails loudly).
"""

from __future__ import annotations

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.topologies import FAMILIES, all_family_keys, family_spec
from repro.util.quiet import quiet_numerics


#: The package roots that resolve their ``__all__`` on first access.
LAZY_ROOTS = (
    "repro",
    "repro.bandwidth",
    "repro.routing",
    "repro.theory",
    "repro.topologies",
    "repro.util",
    "repro.workloads",
)

#: Exported constants (no ``__module__``) -> the module defining them.
_CONSTANTS = {
    "DEFAULT_ENGINE": "repro.routing.engine_names",
    "ENGINES": "repro.routing.engine_names",
    "FAMILIES": "repro.topologies.registry",
    "WORKLOADS": "repro.workloads.registry",
}


def _walk_public_modules():
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if "._" in info.name:
            continue
        yield importlib.import_module(info.name)


class TestDocumentation:
    def test_every_module_has_docstring(self):
        undocumented = [
            m.__name__ for m in _walk_public_modules() if not (m.__doc__ or "").strip()
        ]
        assert undocumented == []

    def test_every_public_callable_documented(self):
        missing = []
        for mod in _walk_public_modules():
            exported = getattr(mod, "__all__", None)
            if exported is None:
                continue
            for name in exported:
                obj = getattr(mod, name)
                if callable(obj) and not (inspect.getdoc(obj) or "").strip():
                    missing.append(f"{mod.__name__}.{name}")
        assert missing == []

    def test_public_classes_document_public_methods(self):
        missing = []
        for mod in _walk_public_modules():
            for name in getattr(mod, "__all__", []):
                obj = getattr(mod, name)
                if not inspect.isclass(obj):
                    continue
                for mname, meth in inspect.getmembers(obj, inspect.isfunction):
                    if mname.startswith("_") or meth.__module__ != mod.__name__:
                        continue
                    if not (inspect.getdoc(meth) or "").strip():
                        missing.append(f"{mod.__name__}.{name}.{mname}")
        assert missing == []

    def test_package_exports_resolve(self):
        """The lazy package roots export what their eager imports did.

        Every ``__all__`` name is the object its defining module holds,
        ``from <root> import *`` binds exactly those names, ``dir()``
        lists them, and an unknown name raises ``AttributeError``.
        """
        for root_name in LAZY_ROOTS:
            root = importlib.import_module(root_name)
            for name in root.__all__:
                obj = getattr(root, name)
                assert obj is not None, (root_name, name)
                if name == "__version__":
                    continue
                home = getattr(obj, "__module__", None) or _CONSTANTS[name]
                defined = getattr(importlib.import_module(home), name)
                assert defined is obj, (root_name, name, home)
            star: dict = {}
            exec(f"from {root_name} import *", star)
            del star["__builtins__"]
            assert sorted(star) == sorted(root.__all__), root_name
            assert all(star[name] is getattr(root, name) for name in star)
            assert set(root.__all__) <= set(dir(root)), root_name
            with pytest.raises(AttributeError, match="no_such_name"):
                root.no_such_name

    @pytest.mark.parametrize("root_name", LAZY_ROOTS)
    def test_package_root_imports_nothing_until_read(self, root_name):
        """A fresh ``import <root>`` loads none of the modules behind its
        names."""
        probe = (
            f"import sys, {root_name}; "
            "print(sorted(m for m in sys.modules if m.startswith('repro')))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        out = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True,
            check=True, env=dict(os.environ, PYTHONPATH=src),
        ).stdout
        loaded = set(ast.literal_eval(out))
        assert loaded <= {"repro", "repro.util", "repro.util.lazy", root_name}


class TestRegistryHygiene:
    def test_every_family_buildable(self):
        for key in all_family_keys():
            m = family_spec(key).build_with_size(48)
            assert m.num_nodes >= 4, key

    def test_display_names_unique(self):
        displays = [spec.display for spec in FAMILIES.values()]
        assert len(displays) == len(set(displays))

    def test_weak_flag_matches_port_limit(self):
        for key in all_family_keys():
            spec = family_spec(key)
            m = spec.build_with_size(48)
            assert m.is_weak == spec.weak, key

    def test_delta_at_most_linear_at_least_constant(self):
        from repro.asymptotics import LogPoly

        for key in all_family_keys():
            spec = family_spec(key)
            assert LogPoly.one() <= spec.delta <= LogPoly.n(), key

    def test_wrapped_butterfly_registered(self):
        m = family_spec("wrapped_butterfly").build_with_size(160)
        assert m.family == "wrapped_butterfly"
        assert m.max_degree == 4


class TestGoldenTables:
    """Pin the full derivation chain against the paper's cells."""

    def test_cli_tables_golden_cells(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        for cell in (
            "|H| <= O(|G|^(1/2))",
            "|H| <= O(|G|^(1/2) lg(|G|))",
            "|H| <= O(lg(|G|))",
            "|H| <= O(lg(|G|) lglg(|G|))",
            "|H| <= O(lg(|G|)^2)",
            "|H| <= O(lg(|G|)^3)",
            "Theta(n / lg(n))",
            "Theta(n^(1/2))",
        ):
            assert cell in out, cell

    def test_catalog_golden_row(self, capsys):
        assert main(["catalog", "de_bruijn", "xtree", "mesh_2"]) == 0
        out = capsys.readouterr().out
        assert "lg(n) lglg(n)" in out
        assert "lg(n)^2" in out


class TestQuietNumerics:
    def test_suppresses_matching_warning(self):
        import warnings

        with quiet_numerics():
            with warnings.catch_warnings(record=True) as rec:
                warnings.simplefilter("always")
                with quiet_numerics():
                    warnings.warn("Exited at iteration 5", UserWarning)
                assert rec == []

    def test_passes_other_warnings(self):
        import warnings

        with warnings.catch_warnings(record=True) as rec:
            warnings.simplefilter("always")
            with quiet_numerics():
                warnings.warn("something else entirely", UserWarning)
            assert len(rec) == 1
