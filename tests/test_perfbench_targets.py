"""The benchmark's traced targets stay where its tracer looks for them.

``perfbench/layers.py`` names every function the traced benchmark run
wraps, and ``perfbench/spans.Tracer`` patches a method in its class's
own ``__dict__``.  A refactor that moves a traced method to a base
class (or renames it) would break the per-layer table; this test
wraps every target, then checks that closing the tracer restores the
originals.
"""

import importlib.util
import inspect
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = _load("layers")
spans = _load("spans")


def _resolve(target):
    modname, _, qual = target.partition(":")
    owner, obj = None, importlib.import_module(modname)
    for part in qual.split("."):
        owner, obj = obj, inspect.getattr_static(obj, part)
    return owner, qual.rsplit(".", 1)[-1], obj


def test_every_target_is_wrapped_and_restored():
    originals = [_resolve(target) for target, _name, _measure in layers.TARGETS]
    tracer = spans.Tracer()
    try:
        for target, name, measure in layers.TARGETS:
            tracer.wrap(target, name, measure)
        for (owner, attr, fn), (target, _n, _m) in zip(originals, layers.TARGETS):
            if inspect.isclass(owner):
                assert attr in owner.__dict__, f"{target} is not defined on its class"
                assert owner.__dict__[attr] is not fn, f"{target} was not wrapped"
    finally:
        tracer.close()
    for owner, attr, fn in originals:
        if inspect.isclass(owner):
            assert owner.__dict__[attr] is fn
