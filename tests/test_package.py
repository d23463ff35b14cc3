"""The package namespace: its public names are each module's `__all__`."""

import re
from pathlib import Path

import pytest

import lowregnls
from lowregnls import harness, initial_data, integrator, reference, spectral

MODULES = (harness, initial_data, integrator, reference, spectral)
README = Path(__file__).parent.parent / "README.md"


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_names_resolve_from_the_package(module):
    for name in module.__all__:
        assert getattr(lowregnls, name) is getattr(module, name)


def test_package_all_is_the_modules_all():
    names = [name for module in MODULES for name in module.__all__]
    # a name in two modules would shadow one of them
    assert len(set(names)) == len(names)
    assert sorted(lowregnls.__all__) == sorted(names)
    namespace = {}
    exec("from lowregnls import *", namespace)
    assert set(names) <= set(namespace)


def test_readme_quick_start_runs(capsys):
    text = README.read_text()
    section = text[text.index("## Library quick start"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, str(README), "exec"), {})
    h1, h1_max = (float(v) for v in capsys.readouterr().out.split())
    assert 0.0 < h1 <= h1_max
