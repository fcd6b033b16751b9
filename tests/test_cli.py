"""End-to-end CLI runs: output shapes, frozen fixture values, exit codes."""

import json

import pytest

from weylgrowth import cli, critical
from weylgrowth.cones import poly_cone
from weylgrowth.growth import build_growth_model, growth_model_to_json
from weylgrowth.rational import Q, vadd, vec
from weylgrowth.rootsystem import build_root_system, rho


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def b2_models(tmp_path):
    """Three solved-and-frozen model files on the b2 preset."""
    R = build_root_system("b2")
    rh = rho(R)
    thin = build_growth_model(
        R, poly_cone(generators=((4, 1), (5, 1)), rank=2),
        [vadd(rh, vec((Q(9, 10), Q(1, 5))))])
    wall = build_growth_model(
        R, poly_cone(generators=((3, 1), (1, 1)), rank=2),
        [vadd(rh, vec((Q(1, 2), Q(1, 2))))])
    kink = build_growth_model(
        R, poly_cone(generators=((1, 0), (1, 1)), rank=2),
        [vadd(rh, vec((Q(1), Q(1, 4)))), vadd(rh, vec((Q(3, 4), Q(3, 4))))])
    paths = {}
    for name, model in (("thin", thin), ("wall", wall), ("kink", kink)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(growth_model_to_json(model)))
        paths[name] = str(path)
    return paths


def test_rootsys_presets(capsys):
    code, out, _ = run(capsys, ["rootsys", "--preset", "so(2,5)"])
    assert code == 0
    assert "rho: 5/2, 3/2" in out
    assert "Theta: 1, 0" in out
    code, out, _ = run(capsys, ["rootsys", "--preset", "a1"])
    assert code == 0 and "rho: 1/2" in out
    code, out, _ = run(capsys, ["rootsys", "--preset", "b3"])
    assert code == 0 and "omega_3: 1/2, 1/2, 1/2" in out


def test_rootsys_json(capsys):
    code, out, _ = run(capsys, ["rootsys", "--preset", "so(2,5)", "--json"])
    assert code == 0
    obj = json.loads(out)
    assert obj["rho"] == ["5/2", "3/2"]
    assert obj["Theta"] == [1, 0]
    assert obj["iota_permutation"] == {"1": 1, "2": 2}
    assert len(obj["pos_roots"]) == 4


def test_unknown_preset_is_input_error(capsys):
    code, _, err = run(capsys, ["rootsys", "--preset", "nosuch"])
    assert code == 2 and "input error" in err


def test_bounds_so2n(capsys):
    code, out, _ = run(capsys, ["bounds", "--preset", "so(2,5)"])
    assert code == 0
    obj = json.loads(out)
    rows = {r["alpha_index"]: r for r in obj["bounds"]}
    assert rows[1]["c"] == "3/2" and rows[1]["bound"] == [4, "3/2"]
    assert rows[2]["c"] == "3/2" and rows[2]["bound"] == [4, 3]
    code, _, err = run(capsys, ["bounds", "--preset", "b2", "--alpha", "7"])
    assert code == 2 and "alpha" in err


def test_growth_solve_frozen_fixtures(capsys, b2_models):
    code, out, _ = run(capsys, ["growth-solve", b2_models["thin"],
                                "--mu", "1,0", "--consistency"])
    assert code == 0
    rep = json.loads(out)
    assert rep["consistency"] == "passed"
    assert rep["delta_prime"] == pytest.approx(0.9219544457292888, rel=1e-9)
    assert rep["mu_gamma"] == pytest.approx([0.9, 0.2], rel=1e-9)
    assert rep["theta"]["omega_1"] == pytest.approx(1.1)
    assert rep["theta"]["omega_2"] == pytest.approx(1.8)
    assert rep["delta_prime_mu"][0]["delta_prime"] == pytest.approx(0.95)

    code, out, _ = run(capsys, ["growth-solve", b2_models["wall"]])
    rep = json.loads(out)
    assert code == 0
    assert rep["delta_prime"] == pytest.approx(0.7071067811865475, rel=1e-9)
    assert rep["mu_gamma"] == pytest.approx([0.5, 0.5], rel=1e-9)
    assert rep["theta"] == {"omega_1": 1.0, "omega_2": 1.0}

    code, out, _ = run(capsys, ["growth-solve", b2_models["kink"]])
    rep = json.loads(out)
    assert code == 0
    assert rep["delta_prime"] == pytest.approx(1.0062305898749053, rel=1e-9)
    assert rep["mu_gamma"] == pytest.approx([0.9, 0.45], rel=1e-9)


def test_growth_solve_mu_list_from_file(capsys, b2_models, tmp_path):
    obj = json.loads(open(b2_models["wall"]).read())
    obj["mu_list"] = [["1", "0"], ["1", "1"]]
    path = tmp_path / "withmus.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, ["growth-solve", str(path)])
    assert code == 0
    rep = json.loads(out)
    assert [row["mu"] for row in rep["delta_prime_mu"]] == [[1, 0], [1, 1]]


def test_growth_solve_error_codes(capsys, tmp_path, b2_models):
    code, _, err = run(capsys, ["growth-solve", str(tmp_path / "missing.json")])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    code, _, err = run(capsys, ["growth-solve", str(bad)])
    assert code == 2 and "not valid JSON" in err
    obj = json.loads(open(b2_models["thin"]).read())
    obj["pieces"] = [["100", "1"]]
    inv = tmp_path / "inv.json"
    inv.write_text(json.dumps(obj))
    code, _, err = run(capsys, ["growth-solve", str(inv)])
    assert code == 3 and "model invariant" in err
    for mu in ("1,x", "1,1/0"):
        code, _, err = run(capsys, ["growth-solve", b2_models["thin"],
                                    "--mu", mu])
        assert code == 2 and "non-rational entry" in err
    good = json.loads(open(b2_models["thin"]).read())
    cases = [
        (dict(good, mu_list=[["1", "x"]]), "non-rational entry"),
        (dict(good, mu_list=[[1]]), "needs 2 entries"),
        (dict(good, mu_list=[[1, 1, 1]]), "needs 2 entries"),
        (dict(good, pieces=[["1", "x"]]), "non-rational entry"),
        (dict(good, pieces=[[1, 1, 1]]), "needs 2 entries"),
        ([good], "JSON object"),
    ]
    for key in ("cone", "pieces", "root_system"):
        cases.append(({k: v for k, v in good.items() if k != key}, key))
    malformed = tmp_path / "malformed.json"
    for obj, msg in cases:
        malformed.write_text(json.dumps(obj))
        code, _, err = run(capsys, ["growth-solve", str(malformed)])
        assert code == 2 and msg in err, (obj, err)


def test_growth_solve_consistency_runs_route_b_once(capsys, b2_models,
                                                   monkeypatch):
    calls = []
    solve = critical.solve_mu_gamma_minimization

    def counted(G, **kw):
        calls.append(G)
        return solve(G, **kw)
    monkeypatch.setattr(critical, "solve_mu_gamma_minimization", counted)
    for name in ("thin", "wall", "kink"):
        calls.clear()
        code, out, _ = run(capsys, ["growth-solve", b2_models[name],
                                    "--consistency"])
        assert code == 0 and json.loads(out)["consistency"] == "passed"
        assert len(calls) == 1


def test_figure_deterministic_and_guarded(capsys, tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    code, out, _ = run(capsys, ["figure", "--n", "5", "-o", str(a)])
    assert code == 0 and "wrote" in out
    code, _, _ = run(capsys, ["figure", "--preset", "so(2,5)", "-o", str(b)])
    assert code == 0
    assert a.read_bytes() == b.read_bytes()
    code, _, err = run(capsys, ["figure", "--preset", "b3",
                                "-o", str(tmp_path / "c.svg")])
    assert code == 2 and "rank-2" in err
    code, _, err = run(capsys, ["figure", "-o", str(tmp_path / "d.svg")])
    assert code == 2 and "--n" in err


def test_check_lemmas_suite(capsys):
    code, out, _ = run(capsys, ["--seed", "7", "check", "--suite", "lemmas",
                                "--samples", "40"])
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == 0
    assert obj["rows"] == 30
    assert obj["seed"] == 7


def test_check_replays_suite(capsys):
    code, out, _ = run(capsys, ["check", "--suite", "replays", "--models", "1"])
    assert code == 0
    obj = json.loads(out)
    assert obj["failures"] == 0
    assert obj["rows"] > 6


def test_check_failure_maps_to_exit_1(capsys, monkeypatch):
    def fake(lemma, preset, samples, seed):
        return {"lemma": lemma, "preset": preset, "samples": samples,
                "failures": [("bad", "sample")], "mode": "report"}
    monkeypatch.setattr(cli, "run_lemma_check", fake)
    code, _, err = run(capsys, ["check", "--suite", "lemmas"])
    assert code == 1 and "check failure" in err


def test_orbit_cyclic_fixture(capsys, tmp_path):
    gens = tmp_path / "cyc.json"
    e = 2.718281828459045
    gens.write_text(json.dumps({
        "ambient": "sl3r",
        "generators": [[[e, 0, 0], [0, 1, 0], [0, 0, 1 / e]]],
        "max_word_length": 12}))
    csv_path = tmp_path / "sample.csv"
    code, out, _ = run(capsys, ["orbit", str(gens), "--radius-cut", "3",
                                "--iota-check", "10", "-o", str(csv_path)])
    assert code == 0
    obj = json.loads(out)
    assert obj["points"] == 13 and obj["dropped"] == 0
    assert len(obj["cone_generators"]) == 1
    assert obj["iota_symmetry"]["pairs"] == 20
    assert obj["iota_symmetry"]["failures"] == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == "word_length,x1,x2,x3"
    assert len(lines) == 14


def test_orbit_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[[")
    code, _, err = run(capsys, ["orbit", str(bad)])
    assert code == 2 and "not valid JSON" in err


def test_orbit_bad_mu(capsys, tmp_path):
    gens = tmp_path / "cyc.json"
    gens.write_text(json.dumps({
        "ambient": "sl3r",
        "generators": [[[2.0, 0, 0], [0, 1, 0], [0, 0, 0.5]]],
        "max_word_length": 4}))
    code, _, err = run(capsys, ["orbit", str(gens), "--mu", "1,x,0"])
    assert code == 2 and "non-rational entry" in err


def test_config_file_env(capsys, tmp_path, monkeypatch):
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps({"orbit_cap": 5}))
    monkeypatch.setenv("WEYLGROWTH_CONFIG", str(cfgfile))
    gens = tmp_path / "cyc.json"
    gens.write_text(json.dumps({
        "ambient": "sl3r",
        "generators": [[[2.0, 0, 0], [0, 1, 0], [0, 0, 0.5]]],
        "max_word_length": 12}))
    code, _, err = run(capsys, ["orbit", str(gens)])
    assert code == 2 and "cap" in err
    for key in ("no_such_key", "tolerance", "max_iter"):
        cfgfile.write_text(json.dumps({key: 1}))
        code, _, err = run(capsys, ["rootsys", "--preset", "a1"])
        assert code == 2 and "unknown config key" in err
    cfgfile.write_text(json.dumps({"seed": "abc"}))
    code, _, err = run(capsys, ["rootsys", "--preset", "a1"])
    assert code == 2 and "not a valid int" in err
