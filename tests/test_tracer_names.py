"""Every name that perfbench/tracing.py wraps exists in its psldesigns
module. The tracer replaces module attributes by name, so deleting or
renaming one of them would break `perfbench/run.py --trace 1`; this test
fails first."""

import importlib


def test_every_traced_name_is_a_callable_of_its_module(tracing):
    traced = [
        (layer, name)
        for table in (tracing.SPANNED, tracing.COUNTED)
        for layer, names in table.items()
        for name in names
    ]
    assert len(traced) > 20
    for layer, name in traced:
        mod = importlib.import_module(f"psldesigns.{layer}")
        assert callable(getattr(mod, name, None)), f"psldesigns.{layer}.{name}"
