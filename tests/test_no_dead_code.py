"""Every function, class and method in ``src/scantraj`` has a reason to exist.

A definition passes when something in ``src/`` names it outside its own
body, when ``bench/tracer.py`` binds it in ``SPANS``, or when it is one of
the public helpers below that the tests, the demos or the README's users
call. A method is reached only as an attribute (``obj.name``), so only an
attribute of its name counts for it; a function or class counts any name,
attribute or import of its name. Names are matched by identifier, so a
name shared with another definition counts for both: the guard catches
code nothing names at all.
Likewise every switch of ``ModelConfig`` picks a code path that a demo or a
benchmark workload runs, every field of ``TrainConfig`` and ``GanConfig`` is
set by one, and every defaulted parameter is passed by some call in
``src/``, ``demos/`` or ``bench/`` or has a reason below: an option with one
value in use is a constant. ``bench/`` is parsed, not imported, so nothing
under it is written.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from scantraj.generative import GanConfig
from scantraj.model import ModelConfig
from scantraj.training import TrainConfig

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "scantraj"

# "module.name" or "module.Class.method" -> why it stays without a caller in src/.
PUBLIC_HELPERS = {
    "autodiff.sigmoid": "reference op the tests compose LSTM and loss references from",
    "autodiff.log": "reference op the tests compose loss references from",
    "autodiff.ParamStore.names": "public accessor: parameter names in update order",
    "autodiff.TensorNode.item": "public accessor: a scalar node's value as a Python float",
    "cli._Parser.error": "argparse hook: argparse calls it on a usage error",
    "generative.PredictionSet.positions_array": "public accessor, used by the diversity demo",
    "generative.sample_spread": "evaluation metric of sample spread, used by the diversity demo",
    "geometry.bin_index": "scalar reference that geometry.bin_indices equals bit for bit",
    "metrics.MetricReport.from_csv": "documented reader of the evaluate/sweep CSV",
    "metrics.near_collision_rate": "documented metric: percent of colliding pedestrians",
    "metrics.linear_extrapolation": "constant-velocity baseline of the collision demo",
    "model.ForwardResult.displacements": "public accessor: a copy of the predicted "
                                         "displacements, beside positions()",
    "training.read_curve": "documented reader of the loss-curve CSV",
}

# "module.function.parameter" (``Class.__init__`` for a constructor's) ->
# why a defaulted parameter that no call in src/, demos/ or bench/ passes stays.
PUBLIC_OPTIONS = {
    "model.ScanModel.forward.noise": "a generative model's noise draw; the tests pass "
                                     "it to check sampling through the public pass",
    "plots.domain_heatmap.title": "the figure title; the tests drive the XML escape "
                                  "through it",
}


def definitions() -> dict:
    """"module.name" -> (module, definition node) for every top-level
    function and class and every method, dunders excepted: Python calls
    those itself."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found[f"{module}.{node.name}"] = (module, node)
            for sub in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(sub, ast.FunctionDef):
                    found[f"{module}.{node.name}.{sub.name}"] = (module, sub)
    return {key: value for key, value in found.items()
            if not key.rsplit(".", 1)[1].startswith("__")}


def references() -> list:
    """(module, identifier, line, is an attribute) of every name, attribute
    and import in src/."""
    out = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.name.rsplit(".", 1)[-1] if isinstance(node, ast.alias) else None)
            if name is not None:
                out.append((path.stem, name, getattr(node, "lineno", 0),
                            isinstance(node, ast.Attribute)))
    return out


def tracer_bound() -> set:
    """"module.name" of every (namespace, attribute) pair in ``SPANS``."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    [spans] = [node.value for node in tree.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["SPANS"]]
    bound = set()
    for bindings in spans.values:
        for pair in bindings.elts:
            namespace, attribute = pair.elts
            bound.add(f"{ast.unparse(namespace)}.{attribute.value}")
    return bound


def test_every_definition_has_a_caller_a_tracer_binding_or_a_reason():
    refs = references()
    spared = tracer_bound() | set(PUBLIC_HELPERS)
    uncalled = []
    for key, (module, node) in definitions().items():
        name = key.rsplit(".", 1)[1]
        method = key.count(".") == 2
        called = any(ref == name and (attribute or not method)
                     and not (mod == module and node.lineno <= line <= node.end_lineno)
                     for mod, ref, line, attribute in refs)
        if not called and key not in spared:
            uncalled.append(key)
    assert uncalled == [], f"nothing in src/ calls {uncalled}: delete them or say why they stay"


def defaulted_parameters() -> dict:
    """"module.function.parameter" -> (called name, positional index or None)
    of every parameter with a default, for each definition and constructor;
    a method's index leaves out ``self`` and a keyword-only one has none."""
    found = {}
    functions = {key: node for key, (_, node) in definitions().items()
                 if isinstance(node, ast.FunctionDef)}
    for key, (_, node) in definitions().items():
        for sub in node.body if isinstance(node, ast.ClassDef) else ():
            if isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                functions[f"{key}.__init__"] = sub
    for key, node in functions.items():
        parts = key.split(".")
        called = parts[-2] if parts[-1] == "__init__" else parts[-1]
        bound = len(parts) > 2 and not any(getattr(d, "id", None) == "staticmethod"
                                           for d in node.decorator_list)
        positional = node.args.posonlyargs + node.args.args
        first = len(positional) - len(node.args.defaults)
        for index, arg in enumerate(positional[first:], start=first - bound):
            found[f"{key}.{arg.arg}"] = (called, index)
        for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults):
            if default is not None:
                found[f"{key}.{arg.arg}"] = (called, None)
    return found


def calls(*folders) -> list:
    """Every call under ``folders`` as (called identifier, call node)."""
    out = []
    for folder in folders:
        for path in sorted(folder.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                func = getattr(node, "func", None)
                name = getattr(func, "id", getattr(func, "attr", None))
                if isinstance(node, ast.Call) and name is not None:
                    out.append((name, node))
    return out


def passes(call: ast.Call, name: str, index) -> bool:
    """Whether ``call`` passes parameter ``name`` at positional ``index``,
    by keyword, by position or through ``*args`` or ``**kwargs``."""
    return (any(kw.arg in (name, None) for kw in call.keywords)
            or index is not None and (len(call.args) > index or any(
                isinstance(arg, ast.Starred) for arg in call.args)))


def test_every_defaulted_parameter_is_passed_by_a_caller_or_has_a_reason():
    everything = calls(SRC, ROOT / "demos", ROOT / "bench")
    spared = tracer_bound() | set(PUBLIC_HELPERS)
    unpassed = [key for key, (called, index) in defaulted_parameters().items()
                if key.rsplit(".", 1)[0].removesuffix(".__init__") not in spared
                and key not in PUBLIC_OPTIONS
                and not any(name == called and passes(call, key.rsplit(".", 1)[1], index)
                            for name, call in everything)]
    assert unpassed == [], f"no caller passes {unpassed}: make them constants or say why"


def test_every_public_option_is_still_a_defaulted_parameter():
    assert set(PUBLIC_OPTIONS) - set(defaulted_parameters()) == set()


@pytest.mark.parametrize("config", [TrainConfig, GanConfig])
def test_every_train_and_gan_field_is_set_by_a_demo_or_the_bench(config):
    passed = {kw.arg for name, call in calls(ROOT / "demos", ROOT / "bench")
              if name == config.__name__ for kw in call.keywords}
    assert {field.name for field in dataclasses.fields(config)} - passed == set()


def test_every_public_helper_still_exists():
    assert set(PUBLIC_HELPERS) - set(definitions()) == set()


def test_every_model_switch_is_set_off_its_default_by_a_demo_or_the_bench():
    # A bool or str field picks a code path; one that no ModelConfig(...)
    # call in demos/ or bench/ sets to another literal is a path only the
    # tests run.
    defaults = {field.name: field.default for field in dataclasses.fields(ModelConfig)
                if isinstance(field.default, (bool, str))}
    moved = set()
    for path in sorted([*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            func = getattr(node, "func", None)
            if getattr(func, "id", getattr(func, "attr", None)) != "ModelConfig":
                continue
            moved |= {kw.arg for kw in node.keywords if kw.arg in defaults
                      and isinstance(kw.value, ast.Constant)
                      and kw.value.value != defaults[kw.arg]}
    assert set(defaults) - moved == set(), "switches no demo or workload sets"



# The batched geometry works on whole arrays: no Python loop over agents or
# pairs, and no trip through Python floats.
ARRAY_GEOMETRY = ("_moves", "advance_kinematics", "track_kinematics", "pair_offsets",
                  "bin_indices", "_normalize_deg_array")


def test_the_array_geometry_has_no_python_loop():
    defs = definitions()
    found = []
    for name in ARRAY_GEOMETRY:
        for node in ast.walk(defs[f"geometry.{name}"][1]):
            func = getattr(node, "func", None)
            if (isinstance(node, (ast.For, ast.While, ast.comprehension))
                    or isinstance(func, ast.Name) and func.id == "map"
                    or isinstance(func, ast.Attribute) and func.attr == "tolist"):
                found.append(f"{name}: {ast.unparse(node).splitlines()[0]}")
    assert found == [], "a Python loop in the array geometry"


# The fused kernels lay every weight out once per record, before their step
# loops (``autodiff._laid_out``), and the float recipes their loops call take
# the laid-out copies: a transpose or a contiguous copy there would make
# one again every step, and numpy would run stacked rows as one gemm each.
LAID_OUT_BEFORE_THE_LOOPS = ("decoder_rollout", "recurrence")
TAKE_LAID_OUT_WEIGHTS = ("_rows_times", "_lstm_values", "_attention_values")


def layout_work(node: ast.AST) -> list:
    """Every ``.T``, ``ascontiguousarray`` or ``_laid_out`` under ``node``."""
    return [ast.unparse(sub) for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute) and sub.attr == "T"
            or isinstance(sub, ast.Call) and getattr(sub.func, "attr", getattr(
                sub.func, "id", None)) in ("ascontiguousarray", "_laid_out")]


def test_no_weight_is_laid_out_inside_a_step_loop():
    defs = definitions()
    found = [f"{name}: {work}" for name in TAKE_LAID_OUT_WEIGHTS
             for work in layout_work(defs[f"autodiff.{name}"][1])]
    for name in LAID_OUT_BEFORE_THE_LOOPS:
        loops = [node for node in ast.walk(defs[f"autodiff.{name}"][1])
                 if isinstance(node, (ast.For, ast.While))]
        assert loops, name
        found += [f"{name}: {work}" for loop in loops for work in layout_work(loop)]
    assert found == [], "a weight laid out inside a step loop"
