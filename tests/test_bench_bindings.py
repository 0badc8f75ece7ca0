"""The benchmark's tracer wraps names it looks up on the package modules,
and its workloads build their state from the package before any timing;
a name pruned from the package would stop a benchmark run partway
through."""

import importlib.util
import io
import math
from pathlib import Path

import numpy as np
import pytest

from ellipse_contact import EllipseShape, MCConfig, mcsim

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as a module named perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "module, attr", [(m.__name__, a) for m, a, _ in load_perfbench("spans").BINDINGS]
)
def test_traced_binding_is_callable(module, attr):
    mod = importlib.import_module(module)
    assert callable(getattr(mod, attr, None)), f"{module}.{attr} is gone"


@pytest.mark.parametrize("name", sorted(load_perfbench("workloads").WORKLOADS))
def test_workload_setup_runs(name):
    # what the benchmark's set-up probe runs, at the self-check's size
    workloads = load_perfbench("workloads")
    workloads.WORKLOADS[name].setup(1, workloads.SIZES["tiny"])


def test_wrapped_pair_predicate_sees_sweep_and_audit(monkeypatch):
    # the tracer rebinds mcsim._pair_clear; the sweep and the audit must
    # look the name up when they run, not hold the function from import
    side = math.sqrt(48 * 2.0 * math.pi / 0.4)
    cfg = MCConfig(
        n_particles=48, species=((EllipseShape(2.0, 1.0), 1.0),), box=(side, side),
        max_translation=0.35, max_rotation=0.35, seed=3, sweeps=4, sample_every=2,
    )
    plain = io.StringIO()
    mcsim.run_simulation(cfg, plain, audit=True)

    calls, pair_clear = [], mcsim._pair_clear

    def counting(*args):
        calls.append(args)
        return pair_clear(*args)

    monkeypatch.setattr(mcsim, "_pair_clear", counting)
    state = mcsim.init_state(cfg)
    rng = np.random.default_rng(cfg.seed)
    for step in (lambda: mcsim.mc_sweep(state, cfg, rng), lambda: mcsim.audit_overlaps(state)):
        calls.clear()
        step()
        assert calls
    wrapped = io.StringIO()
    mcsim.run_simulation(cfg, wrapped, audit=True)
    assert wrapped.getvalue() == plain.getvalue()
