import hashlib

import numpy as np
import pytest

import infmax as im
from infmax.graph import format_edge_list


def test_tree_shapes():
    t1 = im.families.gen_tree(1)
    assert (t1.num_nodes, t1.graph.num_edges) == (3, 2)
    t3 = im.families.gen_tree(3)
    assert (t3.num_nodes, t3.graph.num_edges) == (15, 14)
    assert np.all(t3.graph.probs == 0.5)
    with pytest.raises(ValueError):
        im.families.gen_tree(0)
    with pytest.raises(ValueError):
        im.families.gen_tree(21)


def test_tree_variance_matches_shifted_closed_form():
    # generator depth counts edge levels; the node-level closed forms are
    # realized at tau = depth + 1, e.g. depth 2 -> 3*2*5/12 = 2.5
    report = im.exact_report(im.families.gen_tree(2), (0,), 2)
    assert report.variance == pytest.approx(2.5)


def test_star_family():
    dep = im.families.gen_star(200, dependent=True)
    assert dep.kind == im.BDEP and dep.b == 200
    assert im.exact_report(dep, (0,), 1).influence == pytest.approx(101.0)

    lone = im.families.gen_star(0, dependent=False)
    assert lone.num_nodes == 1
    assert im.exact_report(lone, (0,), 1).influence == 1.0

    star = im.families.gen_star(200, dependent=False)
    live, _ = im.sample_pool(star, 0, 2000, packed=True)
    values = im.row_values(star.graph, im.reach_mask_batch(star.graph, live, (0,), 1), 2000)
    # binomial oracle: mean 1 + 200/2, variance 200 * 1/4
    assert values.mean() == pytest.approx(101.0, abs=4 * np.sqrt(50 / 2000))
    assert values.var(ddof=1) == pytest.approx(50.0, rel=0.2)


def test_polysimu_documented_construction():
    for n in (1000, 10_000):
        model = im.families.gen_polysimu(n)
        two_step = im.exact_report(model, (0,), 2)
        assert two_step.influence == pytest.approx(100.0, abs=1e-9)
        assert two_step.variance == pytest.approx(75.0 * (n - 100))
        assert 0.5 <= two_step.variance / (100.0 * n) <= 1.5
        one_step = im.exact_report(model, (0,), 1)
        assert one_step.influence == pytest.approx(25.0 + 75.0 / (n - 25))
    with pytest.raises(ValueError):
        im.families.gen_polysimu(101)


def test_two_world_flips_the_maximizer():
    model = im.families.gen_two_world_mixture()
    tau = im.families.TWO_WORLD_TAU
    truth = [im.exact_report(model, (v,), tau).influence
             for v in range(model.num_nodes)]
    biased = [im.exact_report(im.marginal_edge_model(model), (v,), tau).influence
              for v in range(model.num_nodes)]
    assert int(np.argmax(truth)) != int(np.argmax(biased))


def test_generators_are_deterministic(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    dir_a.mkdir()
    dir_b.mkdir()
    im.save_model(im.families.gen_polysimu(500), dir_a / "poly.model")
    im.save_model(im.families.gen_polysimu(500), dir_b / "poly.model")
    assert (dir_a / "poly.model").read_bytes() == (dir_b / "poly.model").read_bytes()
    assert (dir_a / "poly.edges").read_bytes() == (dir_b / "poly.edges").read_bytes()
    im.save_model(im.families.gen_two_world_mixture(), dir_a / "mix.model")
    im.save_model(im.families.gen_two_world_mixture(), dir_b / "mix.model")
    for name in ("mix.model", "mix.comp0.model", "mix.comp0.edges",
                 "mix.comp1.model", "mix.comp1.edges"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_random_ic_fixtures_are_frozen():
    expected = {
        1: "c5b6d5af02e4a9b1",
        2: "3db9c4d7c72b5ccf",
        3: "87e68b1c255712a0",
    }
    for seed, digest in expected.items():
        model = im.families.gen_random_ic(10, 15, seed=seed)
        assert (model.num_nodes, model.graph.num_edges) == (10, 15)
        text = format_edge_list(model.graph)
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


def test_random_ic_rejects_bad_shapes():
    with pytest.raises(ValueError):
        im.families.gen_random_ic(1, 0)
    with pytest.raises(ValueError):
        im.families.gen_random_ic(4, 40)
