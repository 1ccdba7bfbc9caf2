import importlib
import pkgutil

import tiltkit
from tiltkit.fixtures import fixture
from tiltkit.hessian import definiteness, kernel
from tiltkit.model import FunctionSpec
from tiltkit.polyhedra import ConvexPolyhedron, PolyUnion
from tiltkit.rational import MEMO_SIZE

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


def test_every_process_wide_memo_is_one_bounded_lru_cache():
    memos = process_wide_memos()
    assert sorted(memos) == ["tiltkit.cones._vrep", "tiltkit.cones.generated_cone",
                             "tiltkit.lp._strict_feasible",
                             "tiltkit.project._projection_data",
                             "tiltkit.regularity._ball_points"]
    for memo in memos.values():
        assert memo.cache_parameters() == {"maxsize": MEMO_SIZE, "typed": False}

    inst = fixture("saddle-cone").instance
    warm = definiteness(inst.f, inst.xbar, inst.xstar), kernel(inst.f, inst.xbar, inst.xstar)
    for memo in memos.values():
        memo.cache_clear()
    sizes = module_container_sizes()
    f = FunctionSpec(smooth=inst.f.smooth, domain=PolyUnion(
        [ConvexPolyhedron(p.a, p.b, dim=p.dim) for p in inst.f.domain.pieces]))
    cold = definiteness(f, inst.xbar, inst.xstar), kernel(f, inst.xbar, inst.xstar)
    assert cold == warm
    # the cold run went through the memos and grew no module-level container
    assert memos["tiltkit.lp._strict_feasible"].cache_info().currsize
    assert memos["tiltkit.cones._vrep"].cache_info().currsize
    assert module_container_sizes() == sizes
