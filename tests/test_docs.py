"""Each fact has one home: every public name documents itself, and README
states contracts without naming the private code that keeps them."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import famv

MODULES = [famv] + [importlib.import_module(f"famv.{m.name}")
                    for m in pkgutil.iter_modules(famv.__path__)]
# ALGORITHMS is a dict, which has no docstring of its own
PUBLIC = [name for name in famv.__all__
          if inspect.isclass(getattr(famv, name)) or inspect.isroutine(getattr(famv, name))]
README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _own_doc(obj) -> str:
    """``obj``'s docstring, not one inherited from a base class."""
    doc = vars(obj).get("__doc__") if inspect.isclass(obj) else obj.__doc__
    return (doc or "").strip()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_module_has_a_docstring(module):
    assert (module.__doc__ or "").strip()


@pytest.mark.parametrize("name", PUBLIC)
def test_every_public_name_has_a_docstring_of_its_own(name):
    doc = _own_doc(getattr(famv, name))
    assert doc
    # a dataclass without a docstring gets its signature as one
    assert not doc.startswith(f"{name}(")


def _private_names() -> set[str]:
    names = set()
    for module in MODULES:
        for name, value in vars(module).items():
            names.add(name)
            if inspect.isclass(value) and value.__module__ == module.__name__:
                names.update(vars(value))
    return {n for n in names if n.startswith("_") and not re.fullmatch(r"__\w+__", n)}


def test_readme_names_no_private_famv_name():
    private = _private_names()
    assert {"_fly", "_sweep", "_Uniforms", "_rescale"} <= private
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```$", "", README,
                                              flags=re.MULTILINE | re.DOTALL))
    named = {n for span in spans for n in re.findall(r"\b_\w+", span)}
    assert sorted(named & private) == []
