import importlib
import pkgutil
from pathlib import Path

import tiltkit
from tiltkit.cli import main
from tiltkit.fixtures import CORPUS, fixture
from tiltkit.hessian import definiteness, kernel
from tiltkit.model import FunctionSpec
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion
from tiltkit.rational import MEMO_SIZE

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
MODULES = [importlib.import_module(f"tiltkit.{m.name}")
           for m in pkgutil.iter_modules(tiltkit.__path__) if m.name != "__main__"]


def process_wide_memos():
    return {f"{mod.__name__}.{name}": obj for mod in MODULES
            for name, obj in vars(mod).items()
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__}


def module_container_sizes():
    return {(mod.__name__, name): len(obj) for mod in MODULES
            for name, obj in vars(mod).items()
            if isinstance(obj, (dict, list, set)) and not name.startswith("__")}


def uncached(f):
    """f rebuilt from its rows, so no cached property of f or its pieces
    is warm."""
    return FunctionSpec(smooth=f.smooth, domain=PolyUnion(
        [ConvexPolyhedron(p.a, p.b, dim=p.dim) for p in f.domain.pieces]))


def test_every_process_wide_memo_is_one_bounded_lru_cache():
    memos = process_wide_memos()
    assert sorted(memos) == ["tiltkit.cones._vrep", "tiltkit.cones.generated_cone",
                             "tiltkit.lp._strict_feasible", "tiltkit.project._projection_data"]
    for memo in memos.values():
        assert memo.cache_parameters() == {"maxsize": MEMO_SIZE, "typed": False}

    inst = fixture("saddle-cone").instance
    warm = definiteness(inst.f, inst.xbar, inst.xstar), kernel(inst.f, inst.xbar, inst.xstar)
    for memo in memos.values():
        memo.cache_clear()
    sizes = module_container_sizes()
    f = uncached(inst.f)
    cold = definiteness(f, inst.xbar, inst.xstar), kernel(f, inst.xbar, inst.xstar)
    assert cold == warm
    # the cold run went through the memos and grew no module-level container
    assert memos["tiltkit.lp._strict_feasible"].cache_info().currsize
    assert memos["tiltkit.cones._vrep"].cache_info().currsize
    assert module_container_sizes() == sizes


def test_every_memo_is_hit_on_cold_traffic(capsys):
    # a memo stays only while the traffic it serves repeats its keys
    memos = process_wide_memos()
    for memo in memos.values():
        memo.cache_clear()
    for fx in CORPUS.values():
        inst = fx.instance
        if inst.f.is_exact:
            f = uncached(inst.f)
            definiteness(f, inst.xbar, inst.xstar)
            kernel(f, inst.xbar, inst.xstar)
    for name in ("cones._vrep", "cones.generated_cone", "lp._strict_feasible"):
        assert memos[f"tiltkit.{name}"].cache_info().hits, name

    for memo in memos.values():
        memo.cache_clear()
    assert main(["analyze", str(PROBLEMS / "cross-quadratic.json")]) == 0
    capsys.readouterr()
    assert memos["tiltkit.project._projection_data"].cache_info().hits
