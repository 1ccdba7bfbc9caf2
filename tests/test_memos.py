import importlib
import pkgutil

import tiltkit
from tiltkit import lp
from tiltkit.fixtures import CORPUS, fixture
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


def uncached(f):
    """f rebuilt from its rows, so no cached property of f or its pieces
    is warm."""
    return FunctionSpec(smooth=f.smooth, domain=PolyUnion(
        [ConvexPolyhedron(p.a, p.b, dim=p.dim) for p in f.domain.pieces]))


def test_every_process_wide_memo_is_one_bounded_lru_cache():
    memos = process_wide_memos()
    assert sorted(memos) == ["tiltkit.cones._vrep", "tiltkit.cones.generated_cone",
                             "tiltkit.lp._equality_basis", "tiltkit.lp._strict_feasible",
                             "tiltkit.project._projection_data",
                             "tiltkit.regularity._ball_points"]
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
    assert memos["tiltkit.lp._equality_basis"].cache_info().currsize
    assert memos["tiltkit.cones._vrep"].cache_info().currsize
    assert module_container_sizes() == sizes


def test_strict_tests_compute_one_nullspace_per_equality_set(monkeypatch):
    # the nullspace of E depends on E alone, so the strict tests of a cold
    # pass compute it at most once per (n, nonzero rows of E)
    for memo in process_wide_memos().values():
        memo.cache_clear()
    nullspaces, eq_sets = [], set()

    def int_nullspace(*args):
        nullspaces.append(args)
        return real_int_nullspace(*args)

    def strict_homogeneous_feasible(eq_rows, strict_rows, n):
        eq_sets.add((n, frozenset(eq_rows) - {(0,) * n}))
        return real_strict(eq_rows, strict_rows, n)

    real_int_nullspace, real_strict = lp.int_nullspace, lp.strict_homogeneous_feasible
    monkeypatch.setattr(lp, "int_nullspace", int_nullspace)
    monkeypatch.setattr(lp, "strict_homogeneous_feasible", strict_homogeneous_feasible)
    for fx in CORPUS.values():
        inst = fx.instance
        if inst.f.is_exact:
            definiteness(uncached(inst.f), inst.xbar, inst.xstar)
    assert any(eq for _, eq in eq_sets)
    assert 0 < len(nullspaces) <= len(eq_sets)
