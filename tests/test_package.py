import os
import pickle
import subprocess
import sys
from pathlib import Path

import intpow
from intpow import errors

PUBLIC_NAMES = [
    "CoordinateOverflowError",
    "ExtensionTrace",
    "Graph",
    "InfeasibleConstraintsError",
    "IntervalRepresentation",
    "IntpowError",
    "InvalidKError",
    "InvalidVertexError",
    "NonStrictOrderError",
    "NotProperError",
    "ParseError",
    "RepresentationMismatchError",
    "TrapezoidRepresentation",
    "UNREACHABLE",
    "VertexSetMismatchError",
    "WeakOrder",
    "bfs_distances",
    "connected_components",
    "count_interleavings",
    "count_interleavings_filter",
    "endpoint_orders",
    "extend_representation",
    "find_containment_pair",
    "format_graph",
    "format_orders",
    "format_representation",
    "format_trace",
    "format_trapezoid",
    "graph_power",
    "graph_power_oracle",
    "intersection_graph",
    "intersection_rows",
    "is_proper",
    "iterate_powers",
    "load_graph",
    "load_orders",
    "load_representation",
    "load_trace",
    "load_trapezoid",
    "normalize",
    "p5_representation",
    "parse_graph",
    "parse_orders",
    "parse_representation",
    "parse_trace",
    "parse_trapezoid",
    "proper_to_unit",
    "same_orders",
    "save_graph",
    "save_orders",
    "save_representation",
    "save_trace",
    "save_trapezoid",
    "search_representation",
    "trapezoid_intersection_graph",
    "trapezoid_orders",
    "widen_balls",
]


def _modules_loaded_by(statement):
    """Names in sys.modules after a fresh interpreter runs statement.

    The interpreter imports the intpow under test: the copy this process
    imported, from the sources or from an installed package.
    """
    home = Path(intpow.__file__).resolve().parent.parent
    result = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint('\\n'.join(sys.modules))"],
        env={**os.environ, "PYTHONPATH": str(home)},
        capture_output=True,
        text=True,
        check=True,
    )
    return set(result.stdout.split())


def test_cli_import_loads_only_intpow_beyond_its_stdlib_imports():
    baseline = _modules_loaded_by("import argparse, bisect, collections, itertools, math, os")
    loaded = _modules_loaded_by("import intpow.cli")
    extra = loaded - baseline
    assert "intpow.cli" in extra
    assert {name for name in extra if name.partition(".")[0] != "intpow"} == set()
    assert not {"dataclasses", "inspect", "__future__"} & loaded


def test_public_names():
    assert sorted(intpow.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(intpow, name)] == []


ERRORS = [
    errors.IntpowError("base"),
    errors.ParseError("in.graph", 3, "duplicate edge (1, 2)"),
    errors.InvalidVertexError("vertex 7 out of range"),
    errors.InvalidKError("k must be at least 1"),
    errors.VertexSetMismatchError("orders cover 3 and 2 vertices"),
    errors.CoordinateOverflowError("coordinate 2**63 leaves the 64-bit range"),
    errors.NotProperError((1, 4)),
    errors.InfeasibleConstraintsError("negative cycle"),
    errors.RepresentationMismatchError("missing edge 1 3", (0, 2)),
    errors.NonStrictOrderError("order has ties"),
]


def test_errors_survive_pickle():
    assert sorted(type(error).__name__ for error in ERRORS) == sorted(errors.__all__)
    for error in ERRORS:
        copy = pickle.loads(pickle.dumps(error))
        assert type(copy) is type(error)
        assert str(copy) == str(error)
        for name in ("source", "line", "message", "witness", "pair"):
            assert getattr(copy, name, None) == getattr(error, name, None), name
