import io
import json
import math
import tracemalloc

import numpy as np
import pytest

from ellipse_contact import (
    AuditFailure,
    EllipseShape,
    MCConfig,
    PackingInfeasible,
    audit_overlaps,
    init_state,
    load_mc_config,
    mc_sweep,
    order_parameter,
    run_simulation,
)
from ellipse_contact.mcsim import HEX_PACKING_LIMIT


def box_for(n, shape, packing):
    side = math.sqrt(n * shape.area() / packing)
    return (side, side)


def config(n=32, shape=EllipseShape(2.0, 1.0), packing=0.2, seed=42, sweeps=5,
           max_translation=0.3, max_rotation=0.3, species=None):
    return MCConfig(
        n_particles=n,
        species=species or ((shape, 1.0),),
        box=box_for(n, shape, packing),
        max_translation=max_translation,
        max_rotation=max_rotation,
        seed=seed,
        sweeps=sweeps,
        sample_every=5,
    )


def test_config_validation():
    with pytest.raises(PackingInfeasible):
        config(packing=HEX_PACKING_LIMIT + 0.01)
    with pytest.raises(ValueError):
        MCConfig(
            n_particles=4, species=((EllipseShape(1, 1), 0.5),),
            box=(20.0, 20.0), max_translation=0.1, max_rotation=0.1,
            seed=1, sweeps=1,
        )  # fractions don't sum to 1
    with pytest.raises(ValueError):
        config(shape=EllipseShape(6.0, 3.0), n=1, packing=0.5)  # box < 4a
    with pytest.raises(ValueError):
        config(sweeps=0)
    with pytest.raises(ValueError):
        config(sweeps=-2)
    with pytest.raises(ValueError):
        MCConfig(
            n_particles=4, species=((EllipseShape(1, 1), 1.0),),
            box=(20.0, 20.0), max_translation=0.1, max_rotation=0.1,
            seed=1, sweeps=3, sample_every=0,
        )
    for species in ((), ((EllipseShape(1, 1), 1.5), (EllipseShape(2, 1), -0.5))):
        with pytest.raises(ValueError, match="species"):
            MCConfig(
                n_particles=4, species=species,
                box=(20.0, 20.0), max_translation=0.1, max_rotation=0.1,
                seed=1, sweeps=1,
            )  # no species; fractions summing to 1 with one below 0


def test_species_counts_largest_remainder():
    cfg = MCConfig(
        n_particles=10,
        species=((EllipseShape(1.0, 0.5), 0.34), (EllipseShape(0.8, 0.4), 0.66)),
        box=(30.0, 30.0),
        max_translation=0.1,
        max_rotation=0.1,
        seed=1,
        sweeps=1,
    )
    assert cfg.species_counts() == [3, 7]
    assert sum(cfg.species_counts()) == 10


def test_init_state_valid():
    cfg = config(n=100, shape=EllipseShape(0.5, 0.5), packing=0.15)
    state = init_state(cfg)
    assert state.n_particles() == 100
    assert not audit_overlaps(state)
    assert (state.orientations[:, 0] == 1.0).all()


def test_init_state_ellipses_lattice():
    cfg = config(n=64, packing=0.5)
    state = init_state(cfg)
    assert not audit_overlaps(state)


def test_init_state_infeasible_lattice():
    # legal packing fraction overall but the dilated lattice cannot hold it
    with pytest.raises(PackingInfeasible):
        init_state(config(n=64, packing=0.75))


def test_packing_above_bound_rejected():
    with pytest.raises(PackingInfeasible):
        config(n=64, packing=0.95)


def test_zero_amplitude_sweep_accepts_everything():
    cfg = config(n=24, packing=0.3, max_translation=0.0, max_rotation=0.0)
    state = init_state(cfg)
    rng = np.random.default_rng(cfg.seed)
    stats = mc_sweep(state, cfg, rng)
    assert stats.attempted == 24
    assert stats.accepted == 24
    assert stats.acceptance == 1.0


def test_dilute_gas_high_acceptance():
    cfg = config(n=24, packing=0.01, max_translation=0.4, max_rotation=0.4,
                 sweeps=20)
    state = init_state(cfg)
    rng = np.random.default_rng(cfg.seed)
    total_att = total_acc = 0
    for _ in range(cfg.sweeps):
        stats = mc_sweep(state, cfg, rng)
        total_att += stats.attempted
        total_acc += stats.accepted
    assert total_acc / total_att > 0.95
    assert not audit_overlaps(state)


def test_hard_core_integrity_and_audit():
    cfg = config(n=32, packing=0.35, sweeps=30, seed=7)
    state = init_state(cfg)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.sweeps):
        mc_sweep(state, cfg, rng)
        assert not audit_overlaps(state)


def test_cell_list_matches_brute_force_decisions():
    # freeze a state mid-run, then re-evaluate every particle's clearance
    # with the cell list against an all-pairs scan
    from ellipse_contact.mcsim import _pair_clear

    cfg = config(n=40, packing=0.35, sweeps=10, seed=3)
    state = init_state(cfg)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.sweeps):
        mc_sweep(state, cfg, rng)
    lx, ly = state.box
    shapes = state.particle_shapes()
    pos = state.positions.tolist()
    orient = state.orientations.tolist()

    def clear(i, j):
        dx = pos[j][0] - pos[i][0]
        dy = pos[j][1] - pos[i][1]
        dx -= lx * round(dx / lx)
        dy -= ly * round(dy / ly)
        return _pair_clear(shapes[i], shapes[j], orient[i], orient[j], dx, dy)

    for i in range(state.n_particles()):
        cand = set(state.neighbor_candidates(*pos[i]))
        cell_clear = all(clear(i, j) for j in cand if j != i)
        brute_clear = all(clear(i, j) for j in range(state.n_particles()) if j != i)
        assert cell_clear == brute_clear


def test_cells_cover_all_particles():
    cfg = config(n=48, packing=0.3, seed=11)
    state = init_state(cfg)
    rng = np.random.default_rng(cfg.seed)
    for _ in range(5):
        mc_sweep(state, cfg, rng)
    members = sorted(i for cell in state.cell_members for i in cell)
    assert members == list(range(48))
    for i in range(48):
        assert i in state.cell_members[int(state.cell_of[i])]
        assert state.cell_index(state.positions[i, 0], state.positions[i, 1]) == int(
            state.cell_of[i]
        )


def test_small_grid_offers_all_pairs():
    # a box under three cells a side has no distinct neighbor cells, so
    # every particle is a candidate; an audited run stays clean
    cfg = MCConfig(
        n_particles=4, species=((EllipseShape(2.0, 1.0), 1.0),), box=(10.0, 10.0),
        max_translation=0.5, max_rotation=0.5, seed=5, sweeps=10,
    )
    assert run_simulation(cfg, io.StringIO(), audit=True)["audit_failures"] == 0
    state = init_state(cfg)
    assert state.n_cells == (2, 2)
    # x == Lx or y == Ly, as wrap rounding can give, clamps to the last cell
    assert state.cell_index(10.0, 0.0) == 1
    assert state.cell_index(10.0, 10.0) == 3
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.sweeps):
        mc_sweep(state, cfg, rng)
        assert audit_overlaps(state) == []
        for x, y in state.positions.tolist():
            assert sorted(state.neighbor_candidates(x, y)) == [0, 1, 2, 3]


def test_dilute_box_grid_is_capped():
    # a side of 4,000 would be 1,000 cells of width 2a = 4 per side
    huge = MCConfig(
        n_particles=4, species=((EllipseShape(2.0, 1.0), 1.0),), box=(4e3, 4e3),
        max_translation=0.3, max_rotation=0.3, seed=3, sweeps=2,
    )
    assert math.prod(init_state(huge).n_cells) <= 4 * 4 + 9
    run_simulation(huge, io.StringIO(), audit=True)
    # a capped grid still offers every particle within reach as a candidate
    cfg = config(n=16, packing=0.02, max_translation=3.0, seed=4)
    state = init_state(cfg)
    assert int(cfg.box[0] / 4.0) ** 2 > math.prod(state.n_cells)
    rng = np.random.default_rng(cfg.seed)
    lx, ly = state.box
    for _ in range(20):
        mc_sweep(state, cfg, rng)
        pos = state.positions
        for i in range(16):
            cand = set(state.neighbor_candidates(*pos[i]))
            for j in range(16):
                dx, dy = pos[j] - pos[i]
                dx -= lx * round(dx / lx)
                dy -= ly * round(dy / ly)
                if math.hypot(dx, dy) < 4.0:
                    assert j in cand


def test_init_state_audit_memory_is_linear():
    # the lattice audit walks the pair table in row blocks; dense N x N
    # separation arrays would peak above 120 MB here
    cfg = config(n=2000, packing=0.2)
    tracemalloc.start()
    try:
        init_state(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6, peak


def test_determinism_bit_exact():
    cfg = config(n=20, packing=0.3, sweeps=15, seed=123)
    out1, out2 = io.StringIO(), io.StringIO()
    s1 = run_simulation(cfg, out1)
    s2 = run_simulation(cfg, out2)
    assert out1.getvalue() == out2.getvalue()
    assert s1 == s2


def test_different_seed_different_trajectory():
    cfg1 = config(n=20, packing=0.3, sweeps=10, seed=1)
    cfg2 = config(n=20, packing=0.3, sweeps=10, seed=2)
    o1, o2 = io.StringIO(), io.StringIO()
    run_simulation(cfg1, o1)
    run_simulation(cfg2, o2)
    assert o1.getvalue() != o2.getvalue()


def test_order_parameter_aligned():
    cfg = config(n=16, packing=0.2)
    state = init_state(cfg)
    assert math.isclose(order_parameter(state), 1.0, rel_tol=1e-12)


def test_order_parameter_crossed():
    cfg = config(n=16, packing=0.2)
    state = init_state(cfg)
    # exact alternating 0/90 degrees: S = 0
    state.orientations[::2] = (1.0, 0.0)
    state.orientations[1::2] = (0.0, 1.0)
    assert order_parameter(state) < 1e-12


def test_order_parameter_isotropic():
    cfg = config(n=16, packing=0.2)
    state = init_state(cfg)
    rng = np.random.default_rng(0)
    theta = rng.uniform(0.0, 2.0 * math.pi, 10_000)
    big = np.column_stack([np.cos(theta), np.sin(theta)])
    state.orientations = big
    assert order_parameter(state) < 0.05


def test_binary_mixture_runs_clean():
    species = ((EllipseShape(2.0, 1.0), 0.5), (EllipseShape(1.0, 0.6), 0.5))
    cfg = MCConfig(
        n_particles=30,
        species=species,
        box=(42.0, 42.0),
        max_translation=0.4,
        max_rotation=0.4,
        seed=5,
        sweeps=12,
        sample_every=4,
    )
    state = init_state(cfg)
    counts = np.bincount(state.species_index)
    assert counts.tolist() == [15, 15]
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.sweeps):
        mc_sweep(state, cfg, rng)
        assert not audit_overlaps(state)


def test_two_particle_pair_distribution():
    # hard-exclusion radial distribution: zero weight below contact,
    # roughly uniform measure above (detailed-balance smoke test)
    shape = EllipseShape(1.0, 1.0)  # circles: contact distance is 2 exactly
    cfg = MCConfig(
        n_particles=2,
        species=((shape, 1.0),),
        box=(8.0, 8.0),
        max_translation=1.0,
        max_rotation=0.5,
        seed=99,
        sweeps=4000,
        sample_every=1,
    )
    state = init_state(cfg)
    rng = np.random.default_rng(cfg.seed)
    seps = []
    for _ in range(cfg.sweeps):
        mc_sweep(state, cfg, rng)
        dx = state.positions[1, 0] - state.positions[0, 0]
        dy = state.positions[1, 1] - state.positions[0, 1]
        dx -= 8.0 * round(dx / 8.0)
        dy -= 8.0 * round(dy / 8.0)
        seps.append(math.hypot(dx, dy))
    seps = np.array(seps)
    assert seps.min() >= 2.0 * (1.0 - 1e-9)  # hard core never violated
    # occupancy of [2.0, 2.4] vs [2.4, 2.8]: area measure ratio ~ 0.846
    n1 = ((seps >= 2.0) & (seps < 2.4)).sum()
    n2 = ((seps >= 2.4) & (seps < 2.8)).sum()
    assert n1 > 50 and n2 > 50
    ratio = n1 / n2
    expect = (2.4**2 - 2.0**2) / (2.8**2 - 2.4**2)
    assert abs(ratio - expect) < 0.35  # loose: statistical smoke test


def test_trajectory_format(tmp_path):
    cfg = config(n=12, packing=0.2, sweeps=10, seed=8)
    path = tmp_path / "traj.jsonl"
    with open(path, "w") as fh:
        summary = run_simulation(cfg, fh, audit=True)
    lines = path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["sweep"] == 0
    assert len(records[0]["positions"]) == 12
    assert len(records[0]["orientations"]) == 12
    assert "S" in records[0] and "acceptance" in records[0]
    assert records[-1]["summary"] is True
    assert records[-1]["audit_failures"] == 0
    assert summary["sweeps"] == 10


def test_audit_failure_writes_summary_then_raises(plant_overlap):
    plant_overlap(3)
    cfg = config(n=12, packing=0.2, sweeps=10, seed=8)
    out = io.StringIO()
    with pytest.raises(AuditFailure):
        run_simulation(cfg, out, audit=True)
    assert issubclass(AuditFailure, AssertionError)
    last = json.loads(out.getvalue().strip().splitlines()[-1])
    assert last["summary"] is True
    assert last["sweeps"] == 3
    assert last["audit_failures"] >= 1
    assert last["attempted"] == 3 * 12


def test_load_config_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({
        "n_particles": 16,
        "species": [{"a": 2.0, "b": 1.0, "fraction": 1.0}],
        "box": [30.0, 30.0],
        "max_translation": 0.3,
        "max_rotation_deg": 15.0,
        "seed": 7,
        "sweeps": 3,
        "sample_every": 1,
    }))
    cfg = load_mc_config(str(path))
    assert cfg.n_particles == 16
    assert cfg.species[0][0] == EllipseShape(2.0, 1.0)
    assert math.isclose(cfg.max_rotation, math.radians(15.0), rel_tol=1e-15)


def test_load_config_keyvalue(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# hard-ellipse run\n"
        "n_particles = 16\n"
        "species = 2.0:1.0:0.5, 1.0:0.5:0.5\n"
        "box = 30.0 30.0\n"
        "max_translation = 0.3\n"
        "max_rotation_deg = 15\n"
        "seed = 7\n"
        "sweeps = 3\n"
        "sample_every = 1\n"
    )
    cfg = load_mc_config(str(path))
    assert cfg.n_particles == 16
    assert len(cfg.species) == 2
    assert cfg.species[1][0] == EllipseShape(1.0, 0.5)
    assert cfg.box == (30.0, 30.0)
