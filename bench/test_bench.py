"""Quick tests of the benchmark's own code: python3 -m pytest bench/test_bench.py"""

import math
from pathlib import Path

import numpy as np

import gen
import oracle
import tracing


def test_generators_are_deterministic_per_seed():
    root = Path("work")
    assert gen.lattice(7) == gen.lattice(7)
    assert gen.lattice(7) != gen.lattice(8)
    assert sorted(gen.lattice(7)) == sorted(gen.lattice(8))
    for make in (gen.desk_round, gen.cli_cold_round):
        assert make(7, root) == make(7, root)
        assert make(7, root)[2] != make(8, root)[2]
    a, b = gen.noisy_sets(), gen.noisy_sets()
    assert all(np.array_equal(x, y) for k in a for s, t in zip(a[k], b[k]) for x, y in zip(s, t))


def test_desk_round_mix():
    smiles, ops, files = gen.desk_round(3, Path("work"))
    assert len(smiles) == gen.DESK_SMILES
    assert sum(s.adiabatic for s in smiles) == gen.DESK_SMILES // 2
    noisy = [op for op in ops if op.smile < 0]
    assert len(noisy) == 2 * (len(gen.NOISY_OVERFLOW) + len(gen.NOISY_UNDERFLOW))
    assert len(ops) == 5 * gen.DESK_SMILES + len(noisy)
    assert all(op.argv[-2] == "--out" for op in ops)
    assert all(Path(f).name in {Path(op.argv[1]).name for op in ops} for f in files)


def test_fd_density_matches_flat_gaussian_at_chi_one():
    g, t = 0.2, 0.5
    n = 4.0 * g * g * t
    xs, ps = oracle.fd_density(g, 1.0, n, t)
    ref = oracle.gaussian_density(g, t, xs)
    core = ref > 1e-6 * ref.max()
    assert np.max(np.abs(ps[core] - ref[core]) / ref[core]) < 1e-6
    assert math.isclose(np.trapezoid(ps, xs), 1.0, abs_tol=1e-6)
    assert oracle.verdict(ps) == 0


def test_verdict_classes():
    xs = np.linspace(-5.0, 5.0, 1001)
    bump = np.exp(-xs**2 / 2)
    assert oracle.verdict(bump) == 0
    assert oracle.verdict(np.exp(-(xs - 1.5) ** 2) + np.exp(-(xs + 1.5) ** 2)) == 1
    assert oracle.verdict(bump - 0.01 * np.exp(-(xs - 3.0) ** 2 * 20)) == 4


def _span(name, start, end, parent, value=0.0):
    return tracing.Span(name, start, end, parent, value)


def test_self_times_on_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 3.0, 6.0, 0),  # overlaps a: the union [1, 6] is covered once
        _span("c", 2.0, 3.0, 1),
        _span("d", 9.0, 12.0, 0),  # runs past its parent: only [9, 10] counts
    ]
    assert tracing.self_times(spans) == [4.0, 2.0, 3.0, 1.0, 3.0]


def test_layer_metrics_counts():
    spans = [
        _span("cli.refit", 0.0, 1.0, -1),
        _span("adiabatic.search", 0.1, 0.5, 0),
        _span("density.analyze", 0.1, 0.2, 1),
        _span("density.analyze", 0.2, 0.3, 1),
        _span("density.analyze", 0.6, 0.7, 0),
        _span("cli.write", 0.8, 0.9, 0, 100.0),
    ]
    m = tracing.layer_metrics(spans, ops=2)
    assert m["adiabatic.search.verdicts"] == (2.0, "count/search")
    assert m["cli.refit.searches"] == (1.0, "count/refit")
    assert m["density.analyze.calls"] == (1.5, "count/op")
    assert m["cli.write.bytes"] == (50.0, "B/op")
    assert math.isclose(m["adiabatic.search.self_ms"][0], 1e3 * 0.2 / 2)
    assert math.isclose(m["cli.refit.self_ms"][0], 1e3 * (1.0 - 0.4 - 0.1 - 0.1) / 2)
