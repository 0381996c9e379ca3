"""The benchmark's layer tracer can wrap every library binding it names.

``perfbench/tracer.py`` patches module attributes such as
``lpsens.lewis.leverage_exact`` by name, so a library change that drops one
of them breaks every traced benchmark run.  This test loads the tracer from
the source tree (without changing it) and installs and removes it once.
"""

import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_finds_every_binding_and_uninstall_restores_it():
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()  # an AttributeError here names the missing binding
        patched = list(tracer._installed)  # (module, attribute, original)
        assert patched
        for module, attr, original in patched:
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr}"
    finally:
        tracer.uninstall()  # also undoes a partial install
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr}"
