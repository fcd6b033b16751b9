"""End-to-end CLI runs: output shapes, frozen fixture values, exit codes."""

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from weylgrowth import cli, critical
from weylgrowth.cones import cone_to_json, dominant_cone, poly_cone
from weylgrowth.growth import build_growth_model, random_growth_model
from weylgrowth.rational import Q, vadd, vec
from weylgrowth.rootsystem import build_root_system, rho

from model_json import growth_model_to_json


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


# sha256 of the stdout of rootsys --preset X, as text and with --json; the
# cli benchmark pool covers ranks 2-6 only.  CI checks the e8 --json digest
# against the installed entry point.
ROOTSYS_DIGESTS = {
    "e7": ("fd376a9b53c1c1beb64dd0226445b7d7141878a6fc93e4b07c0aef32e8b6f0b6",
           "bfcdf17cde7829c401c26cd3ea6d1da8d7984db2e644f00dd07792ebe706060a"),
    "e8": ("23b221fab89567ef142a2253e91a6cb8c6d73e4b4cb5a79a5da641e007063231",
           "62073e74646d3bfff982582bd62854d591836debb07bf9e9ed2c32bceff6df0a"),
    "a8": ("d429f4ae50fd303f54ebf246bbe7344d0eb79862ccb0ab9dfa478248064cae60",
           "6b0c2e7b91f0b77a12c7804f89fe442b367d589bfc0b509cc55b0fad7a305dca"),
    "b8": ("84e0b661c3ba1c91afd28d312097ade4310b3f8f0064e01b5fb00d1edb315341",
           "ff465e90e1648624206dc378091264698824e39ed682b88e05d67f35ea4359fc"),
    "d8": ("5574211327b001418357cdebb096093b9bb3d16595009ad56dec73d8f51dbe74",
           "a0aad26590a7d4835855dddb26a54b07464d8fd317b92202ce4eec82519d5171"),
    "so(3,9)": ("b3c5c0ff13bc159f663113e9806d71823c9dab14e5f69d8ef8b2f3e0106d48b6",
                "90e4b028ca7adf419ea3f12775b11c3d3ba55aad17474cd922737de035b57627"),
    "sl(5,h)": ("da49b86435a36be8ae52195dfd4fcf8a2894a8d4dd6606f21c3c7d2db8b85f2c",
                "de6a929b998e63611553e5fe4dbeb384d80de9100ed8aedc60a9ad441a1ac598"),
}


@pytest.mark.parametrize("preset", ROOTSYS_DIGESTS)
def test_rootsys_output_is_pinned(capsys, preset):
    for flags, want in zip(([], ["--json"]), ROOTSYS_DIGESTS[preset]):
        code, out, err = run(capsys, ["rootsys", "--preset", preset, *flags])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == want, flags


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


def _src_env() -> dict:
    """The environment for a child interpreter that imports ./src."""
    src = Path(cli.__file__).resolve().parent.parent
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("simple", [[[1, 0], [0, 0]], [[0]]])
def test_growth_solve_zero_simple_root_exits_2(tmp_path, simple):
    # a zero simple root made the positive closure loop forever; the
    # timeout turns a regression into a failure instead of a hang
    n = len(simple)
    model = tmp_path / "zero.json"
    model.write_text(json.dumps({"root_system": {"simple_roots": simple},
                                 "cone": {"generators": [[1] * n]},
                                 "pieces": [[1] * n]}))
    proc = subprocess.run([sys.executable, "-m", "weylgrowth.cli", "growth-solve", str(model)],
                          env=_src_env(), capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stderr
    assert "simple roots are not linearly independent" in proc.stderr
    assert "Traceback" not in proc.stderr


def _scaled_a1a1_model(tmp_path, scale, piece):
    """A1 x A1 with first simple root (scale, 0), the cone on (1, 0) and one
    piece: delta' = scale / 2 for the piece (scale, 0), -scale / 2 for (1, 0)."""
    model = tmp_path / "scaled.json"
    model.write_text(json.dumps({"root_system": {"simple_roots": [[scale, 0], [0, 1]]},
                                 "cone": {"generators": [[1, 0]]}, "pieces": [piece]}))
    return str(model)


# below 1, the piece (1, 0) exceeds twice the half sum
@pytest.mark.parametrize("scale, positive",
                         [(s, True) for s in ("1e160", "1e200", "1e-160", "1e-200")]
                         + [("1e160", False), ("1e200", False)])
def test_growth_solve_norm_outside_the_doubles(capsys, tmp_path, scale, positive):
    # |v|^2 is a subnormal, a zero or an overflow as a float, while delta',
    # v'_Gamma and mu_Gamma are doubles: the square root is taken of a
    # rescaled norm (the exit was 1 with a ZeroDivisionError or an
    # OverflowError, and 1e160 gave delta' 5.00003e159 and v'_Gamma 1.0000056)
    model = _scaled_a1a1_model(tmp_path, scale, [scale, 0] if positive else [1, 0])
    code, out, err = run(capsys, ["growth-solve", model, "--consistency"])
    assert (code, err) == (0, "")
    rep = strict_json(out)
    half = float(scale) / 2
    assert math.isclose(rep["delta_prime"], half if positive else -half, rel_tol=1e-15)
    assert rep["v_gamma"] == [1.0, 0.0]
    if positive:
        assert math.isclose(rep["mu_gamma"][0], half, rel_tol=1e-15)
        assert rep["theta"] == {"omega_1": 1.0, "omega_2": "inf"}


@pytest.mark.parametrize("positive", [True, False])
def test_growth_solve_value_beyond_the_doubles_exits_2(capsys, tmp_path, positive):
    # delta' = +-5e399 has no float
    model = _scaled_a1a1_model(tmp_path, "1e400", ["1e400", 0] if positive else [1, 0])
    code, out, err = run(capsys, ["growth-solve", model])
    assert (code, out) == (2, "")
    assert err == "input error: a critical value lies beyond the float range\n"


@pytest.mark.parametrize("piece", [["7/5", "7/5"], [1, 1]])
def test_growth_solve_exponent_table_beyond_the_doubles_exits_2(capsys, tmp_path, piece):
    # on the a2 chamber, mu = (1e-400, 1e-400) gives the piece (7/5, 7/5) a
    # delta'_mu and a witness near 1e400; the piece rho = (1, 1) gives
    # delta'_mu 0 and such a witness alone (both exited 1 with an
    # OverflowError traceback)
    model = tmp_path / "a2.json"
    model.write_text(json.dumps({"root_system": "a2",
                                 "cone": {"generators": [[1, 0], [0, 1]]},
                                 "pieces": [piece]}))
    code, out, err = run(capsys, ["growth-solve", str(model), "--mu", "1e-400,1e-400"])
    assert (code, out) == (2, "")
    assert err == "input error: a critical value lies beyond the float range\n"


def _refuse_constant(name):
    raise ValueError(f"{name} is not JSON")


def strict_json(text):
    """json.loads without Python's NaN and Infinity extension."""
    return json.loads(text, parse_constant=_refuse_constant)


def test_growth_solve_prints_strict_json_for_an_infinite_theta(capsys, tmp_path):
    # on the reducible d2 = so(2,2), mu_Gamma charges both chamber rays and
    # each fundamental weight vanishes on one of them, so theta is infinite
    # against each (printed as a bare Infinity, which is not JSON)
    model = tmp_path / "d2.json"
    model.write_text(json.dumps({"root_system": "d2",
                                 "cone": {"halfspaces": [[1, -1], [1, 1]]},
                                 "pieces": [[2, 0]]}))
    code, out, err = run(capsys, ["growth-solve", str(model), "--mu", "0,1",
                                  "--consistency"])
    assert (code, err) == (0, "")
    rep = strict_json(out)
    assert rep["theta"] == {"omega_1": "inf", "omega_2": "inf"}
    assert rep["delta_prime_mu"][0]["delta_prime"] == "inf"


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
        (dict(good, cone={"generators": [[1, "x"], [1, 1]]}), "non-rational entry"),
        (dict(good, cone={"halfspaces": [[1, "q"]]}), "non-rational entry"),
        (dict(good, cone={"generators": 5}), "list of vectors"),
        (dict(good, cone=dict(good["cone"], open="false")), "true or false"),
        (dict(good, cone={"generators": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
                          "halfspaces": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}),
         "cone rank 3"),
    ]
    custom = good["root_system"]
    for rs, msg in (
            (dict(custom, simple_roots=[[1, "z"], [0, 1]]), "non-rational entry"),
            (dict(custom, multiplicities=[{"root": [1, -1]}]), "needs 'root' and 'm'")):
        cases.append((dict(good, root_system=rs), msg))
    for key in ("cone", "pieces", "root_system"):
        cases.append(({k: v for k, v in good.items() if k != key}, key))
    malformed = tmp_path / "malformed.json"
    for obj, msg in cases:
        malformed.write_text(json.dumps(obj))
        code, _, err = run(capsys, ["growth-solve", str(malformed)])
        assert code == 2 and msg in err, (obj, err)


@pytest.mark.parametrize("preset, pieces", [
    ("b2", [[3, 5], [8, -4]]),
    ("d4", [["32/5", "18/5", "9/5", 0], ["11/2", "7/2", "5/2", "-3/2"]]),
])
def test_growth_solve_rejects_model_above_two_rho(capsys, tmp_path, preset, pieces):
    # below 2 rho at every chamber generator, above it inside the chamber
    R = build_root_system(preset)
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"root_system": preset,
                                 "cone": cone_to_json(dominant_cone(R)),
                                 "pieces": pieces}))
    code, out, err = run(capsys, ["growth-solve", str(model), "--consistency"])
    assert code == 3 and out == ""
    assert "exceeds twice the half sum on the cone" in err


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


def test_growth_solve_consistency_at_rank_6(capsys, tmp_path):
    # e6, the first exceptional preset with a nontrivial opposition involution
    model = tmp_path / "e6.json"
    G = random_growth_model(build_root_system("e6"), random.Random(3))
    model.write_text(json.dumps(growth_model_to_json(G)))
    code, out, err = run(capsys, ["growth-solve", str(model), "--consistency"])
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["consistency"] == "passed" and rep["route_gap"] == 0


def test_growth_solve_above_the_rank_cap_exits_2(capsys, tmp_path):
    R = build_root_system("a9")
    model = tmp_path / "a9.json"
    model.write_text(json.dumps({"root_system": "a9",
                                 "cone": {"halfspaces": [list(map(str, a))
                                                         for a in R.simple_roots]},
                                 "pieces": [list(map(str, rho(R)))]}))
    code, out, err = run(capsys, ["growth-solve", str(model)])
    assert code == 2 and out == ""
    assert "ray enumeration needs rank 9, above the cap 8; this cap is fixed" in err
    assert "orbit_cap" not in err


def test_internal_error_maps_to_exit_4(capsys, b2_models, monkeypatch):
    monkeypatch.setattr(critical, "min_norm_point", lambda *args: None)
    code, _, err = run(capsys, ["growth-solve", b2_models["thin"]])
    assert code == 4 and err.startswith("internal error:")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("n", ["1", "0", "-3"])
def test_figure_n_below_2_exits_2(capsys, tmp_path, n):
    out_path = tmp_path / "f.svg"
    code, out, err = run(capsys, ["figure", "--n", n, "-o", str(out_path)])
    assert (code, out) == (2, "")
    assert err == "input error: --n must be at least 2\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["--preset", "a2", "--n", "-7"],
                                  ["--preset", "so(2,5)", "--n", "5"]])
def test_figure_n_with_another_preset_exits_2(capsys, tmp_path, argv):
    out_path = tmp_path / "f.svg"
    code, out, err = run(capsys, ["figure", *argv, "-o", str(out_path)])
    assert (code, out) == (2, "")
    assert err == "input error: --n applies only to --preset so2n\n"
    assert not out_path.exists()


def test_figure_n_2_writes_so22(capsys, tmp_path):
    out_path = tmp_path / "f.svg"
    code, out, _ = run(capsys, ["figure", "--n", "2", "-o", str(out_path)])
    assert code == 0 and "wrote" in out
    assert out_path.read_text().startswith("<svg")


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    monkeypatch.delenv(cli.CONFIG_ENV, raising=False)
    cli.build_parser.cache_clear()
    code, out, _ = run(capsys, ["--seed", "7", "check", "--suite", "lemmas",
                                "--samples", "1"])
    assert code == 0 and json.loads(out)["seed"] == 7
    # a fresh Namespace per call: the earlier --seed does not carry over
    code, out, _ = run(capsys, ["check", "--suite", "lemmas", "--samples", "1"])
    assert code == 0 and json.loads(out)["seed"] == 0
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


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


@pytest.mark.parametrize("argv, flag", [
    (["--suite", "lemmas", "--samples", "-5"], "--samples"),
    (["--suite", "lemmas", "--samples", "0"], "--samples"),
    (["--suite", "replays", "--models", "-2"], "--models"),
    (["--suite", "replays", "--models", "0"], "--models"),
])
def test_check_counts_below_one_are_input_errors(capsys, argv, flag):
    code, out, err = run(capsys, ["check", *argv])
    assert code == 2 and out == ""
    assert err.startswith("input error:") and flag in err
    assert "Traceback" not in err


def test_check_failure_maps_to_exit_1(capsys, monkeypatch):
    def fake(lemma, preset, samples, seed):
        return {"lemma": lemma, "preset": preset, "samples": samples,
                "failures": [("bad", "sample")]}
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


# 4 + 12 + 36 + 108 + 324 + 972 = 1456 reduced words up to length 6
PAIR_SPEC = {"ambient": "sl3r",
             "generators": [[[2.0, 1, 0], [1, 1, 0], [0, 0, 1]],
                            [[1.0, 0, 0], [0, 2, 1], [0, 1, 1]]],
             "max_word_length": 1}


def test_orbit_iota_check_obeys_orbit_cap(capsys, tmp_path, monkeypatch):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(PAIR_SPEC))
    cfgfile = tmp_path / "cfg.json"
    monkeypatch.setenv("WEYLGROWTH_CONFIG", str(cfgfile))
    cfgfile.write_text(json.dumps({"orbit_cap": 50}))
    code, out, err = run(capsys, ["orbit", str(spec), "--iota-check", "6"])
    assert code == 2 and out == ""
    assert "involution check needs 51 elements, above the cap 50" in err
    cfgfile.write_text(json.dumps({"orbit_cap": 1456}))
    code, out, _ = run(capsys, ["orbit", str(spec), "--iota-check", "6"])
    assert code == 0 and json.loads(out)["iota_symmetry"]["pairs"] == 1456
    cfgfile.write_text(json.dumps({"orbit_cap": 1455}))
    code, _, err = run(capsys, ["orbit", str(spec), "--iota-check", "6"])
    assert code == 2 and "above the cap 1455" in err


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_orbit_iota_check_depth_below_one_exits_2(capsys, tmp_path, depth):
    spec = tmp_path / "pair.json"
    spec.write_text(json.dumps(PAIR_SPEC))
    code, out, err = run(capsys, ["orbit", str(spec), "--iota-check", depth])
    assert code == 2 and out == ""
    assert "involution check depth must be an integer >= 1" in err


def test_orbit_overflow_keeps_stderr_empty(capsys, tmp_path):
    # products of diag(1e200, 1e-200) overflow from word length 2 on
    spec = tmp_path / "overflow.json"
    spec.write_text(json.dumps({"ambient": "sl2r",
                                "generators": [[[1e200, 0], [0, 1e-200]]],
                                "max_word_length": 3}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, ["orbit", str(spec), "--iota-check", "3"])
    assert code == 0 and err == "" and not caught
    assert json.loads(out) == {
        "dropped": 1, "max_word_length": 1, "points": 2, "rank": 1,
        "iota_symmetry": {"failures": 0, "max_deviation": 0.0, "pairs": 2,
                          "tolerance": 1e-06}}


def test_orbit_bad_json(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[[")
    code, _, err = run(capsys, ["orbit", str(bad)])
    assert code == 2 and "not valid JSON" in err


def test_non_utf8_input_file_is_not_valid_json(capsys, tmp_path, monkeypatch):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    for argv in (["orbit", str(bad)], ["growth-solve", str(bad)]):
        code, _, err = run(capsys, argv)
        assert code == 2 and "not valid JSON" in err
    monkeypatch.setenv(cli.CONFIG_ENV, str(bad))
    code, _, err = run(capsys, ["rootsys", "--preset", "a2"])
    assert code == 2 and "not valid JSON" in err


@pytest.mark.parametrize("command", ["figure", "orbit"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, command):
    gens = tmp_path / "cyc.json"
    gens.write_text(json.dumps({"ambient": "sl3r", "generators": [],
                                "max_word_length": 2}))
    argv = {"figure": ["figure", "--preset", "a2",
                       "-o", str(tmp_path / "missing" / "x.svg")],
            "orbit": ["orbit", str(gens), "-o", str(tmp_path)]}[command]
    code, out, err = run(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("input error: cannot write") and err.count("\n") == 1


def test_orbit_bad_mu(capsys, tmp_path):
    gens = tmp_path / "cyc.json"
    gens.write_text(json.dumps({
        "ambient": "sl3r",
        "generators": [[[2.0, 0, 0], [0, 1, 0], [0, 0, 0.5]]],
        "max_word_length": 4}))
    code, _, err = run(capsys, ["orbit", str(gens), "--mu", "1,x,0"])
    assert code == 2 and "non-rational entry" in err


@pytest.mark.parametrize("mu,message", [
    ("1e400,0,-1", "the weighting functional must have finite entries"),
    ("1e300,0,-1e300", "the fit statistics are not finite; scale the "
                       "weighting functional down"),
])
def test_orbit_mu_overflow_exits_2(capsys, tmp_path, mu, message):
    # quarter log spacing: 1201 points, enough for an estimate
    lam = math.exp(0.25)
    gens = tmp_path / "cyc.json"
    gens.write_text(json.dumps({
        "ambient": "sl3r",
        "generators": [[[lam, 0, 0], [0, 1, 0], [0, 0, 1 / lam]]],
        "max_word_length": 1200}))
    code, out, err = run(capsys, ["orbit", str(gens), f"--mu={mu}"])
    assert (code, out) == (2, "")
    assert err == f"input error: {message}\n"


CYCLIC_SPEC = {"ambient": "sl3r",
               "generators": [[[2.0, 0, 0], [0, 1, 0], [0, 0, 0.5]]],
               "max_word_length": 4}


@pytest.mark.parametrize("cut", ["nan", "inf", "-inf"])
def test_orbit_non_finite_radius_cut_exits_2(capsys, tmp_path, cut):
    gens = tmp_path / "cyc.json"
    gens.write_text(json.dumps(CYCLIC_SPEC))
    code, out, err = run(capsys, ["orbit", str(gens), f"--radius-cut={cut}"])
    assert (code, out) == (2, "")
    assert err == f"input error: the radius cut must be finite, got {float(cut)}\n"


@pytest.mark.parametrize("change", [
    {"generators": 5},
    {"generators": [[[2.0, 0, 0], [0, "x", 0], [0, 0, 0.5]]]},
    {"generators": [[[2.0, 0, 0], [0, 1], [0, 0, 0.5]]]},
    {"dedupe_tolerance": "abc"},
    {"dedupe_tolerance": None},
    {"dedupe_tolerance": 1e-320},
    {"max_word_length": True},
    {"generators": [[[1e300, 1, 0], [1, 1e300, 0], [0, 0, 1]]]},
], ids=["generators-int", "entry-x", "ragged", "tolerance-abc",
        "tolerance-null", "tolerance-subnormal", "word-length-true",
        "determinant-overflow"])
def test_orbit_malformed_spec_exits_2(capsys, tmp_path, change):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(CYCLIC_SPEC, **change)))
    code, _, err = run(capsys, ["orbit", str(spec)])
    assert code == 2 and err.startswith("input error:")
    assert "Traceback" not in err


def _leaves(doc, path=()):
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, path + (k,))
    elif isinstance(doc, list) and doc:
        for i, v in enumerate(doc):
            yield from _leaves(v, path + (i,))
    else:
        yield path


def _replace(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


# bounded leaf values; the text alphabet spells no preset name, so no
# mutation turns the model into a large root system
LEAF = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(-2, 9)),
    st.text(alphabet="xy/.- ", max_size=4),
    st.none(),
    st.booleans(),
    st.lists(st.integers(-3, 3), max_size=4),
    st.just({}),
)


def _mutations(doc):
    paths = sorted(_leaves(doc), key=repr)
    return st.lists(st.tuples(st.sampled_from(paths), LEAF), min_size=1,
                    max_size=3)


def _main_on_mutation(tmp_path_factory, doc, mutations, argv):
    for path, value in mutations:
        doc = _replace(doc, path, value)
    folder = tmp_path_factory.mktemp("mutated")
    cfg = folder / "cfg.json"
    cfg.write_text(json.dumps({"orbit_cap": 2000}))
    target = folder / "input.json"
    target.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"WEYLGROWTH_CONFIG": str(cfg)}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([argv[0], str(target)] + argv[1:])
    assert code in (0, 1, 2, 3), (doc, code, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()


B2_MODEL = {"root_system": "b2",
            "cone": {"generators": [[3, 1], [5, 2]],
                     "halfspaces": [[-1, 3], [2, -5]], "open": False},
            "pieces": [["27/10", "9/10"], [3, 2], ["9/2", "5/2"]],
            "mu_list": [[1, 0], ["1/2", 1]]}


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(mutations=_mutations(B2_MODEL))
def test_mutated_model_exits_with_documented_code(tmp_path_factory, mutations):
    _main_on_mutation(tmp_path_factory, B2_MODEL, mutations,
                      ["growth-solve", "--consistency"])


ORBIT_SPEC = dict(CYCLIC_SPEC, dedupe_tolerance=1e-6)


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(mutations=_mutations(ORBIT_SPEC))
def test_mutated_orbit_spec_exits_with_documented_code(tmp_path_factory,
                                                       mutations):
    _main_on_mutation(tmp_path_factory, ORBIT_SPEC, mutations,
                      ["orbit", "--radius-cut", "1"])


CONFIG = {"seed": 0, "orbit_cap": 2000}
# JSON reads 1e400 as inf; a float is never a valid config int
CONFIG_LEAF = st.one_of(LEAF, st.sampled_from([1e400, -1e400, math.nan]),
                        st.integers(-10**30, 10**30))


@settings(max_examples=120, derandomize=True, database=None, deadline=None)
@given(mutations=st.lists(st.tuples(st.sampled_from(sorted(CONFIG)), CONFIG_LEAF),
                          min_size=1, max_size=2))
def test_mutated_config_exits_with_documented_code(tmp_path_factory, mutations):
    config = dict(CONFIG)
    for key, value in mutations:
        config[key] = value
    folder = tmp_path_factory.mktemp("config")
    cfg = folder / "cfg.json"
    cfg.write_text(json.dumps(config))
    spec = folder / "spec.json"
    spec.write_text(json.dumps(CYCLIC_SPEC))
    for argv in (["orbit", str(spec)], ["rootsys", "--preset", "a2"]):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, {"WEYLGROWTH_CONFIG": str(cfg)}), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2, 3), (config, argv, code, err.getvalue())
        assert "Traceback" not in err.getvalue() + out.getvalue()


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
    for cfg in ({"seed": "abc"}, {"seed": 1e400}, {"seed": True}, {"seed": "3"},
                {"seed": 2.0}, {"orbit_cap": 2.9}, {"orbit_cap": -5},
                {"orbit_cap": 0}, {"orbit_cap": False}):
        cfgfile.write_text(json.dumps(cfg))
        code, _, err = run(capsys, ["rootsys", "--preset", "a1"])
        assert code == 2 and "not a valid int" in err, cfg
    cfgfile.write_text(json.dumps({"seed": -3, "orbit_cap": 1}))
    assert cli.load_config() == {"seed": -3, "orbit_cap": 1}


# -- without the orbits extra ---------------------------------------------

# A fresh interpreter whose first meta-path finder refuses the modules
# named in argv[1] (comma separated) and their submodules, as if they were
# not installed, then runs the CLI on argv[2:].
REFUSING_CLI = """
import sys

refused = sys.argv[1].split(",")


class Refuse:
    def find_spec(self, name, path=None, target=None):
        if any(name == r or name.startswith(r + ".") for r in refused):
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)
        return None


sys.meta_path.insert(0, Refuse())
from weylgrowth.cli import main

sys.exit(main(sys.argv[2:]))
"""


def run_refusing(refused, argv):
    return subprocess.run(
        [sys.executable, "-c", REFUSING_CLI, ",".join(refused), *argv],
        env=_src_env(), capture_output=True, text=True, timeout=120)


def test_cli_import_loads_neither_numpy_nor_scipy():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, weylgrowth.cli; "
         "print(sorted({'numpy', 'scipy'} & set(sys.modules)))"],
        env=_src_env(), capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


@pytest.mark.parametrize("argv", [
    ["rootsys", "--preset", "b3", "--json"],
    ["bounds", "--preset", "b2"],
    ["growth-solve", "@model", "--consistency"],
    ["check", "--suite", "lemmas", "--samples", "20"],
    ["figure", "--preset", "so2n", "--n", "5", "-o", "@svg"],
    ["--help"],
], ids=lambda argv: argv[0])
def test_exact_subcommands_run_without_numpy_and_scipy(tmp_path, b2_models,
                                                       argv):
    files = {"@model": b2_models["thin"], "@svg": str(tmp_path / "f.svg")}
    proc = run_refusing(["numpy", "scipy"], [files.get(a, a) for a in argv])
    assert (proc.returncode, proc.stderr) == (0, "")


@pytest.fixture()
def sl4r_spec(tmp_path):
    """21 points whose limit cone is found by Qhull: scipy loads for it."""
    spec = tmp_path / "sl4r.json"
    spec.write_text(json.dumps({
        "ambient": "sl4r",
        "generators": [[[2.0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
                       [[1.0, 0, 0, 0], [0, 2, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1]],
                       [[1.0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 1]]],
        "max_word_length": 3}))
    return str(spec)


@pytest.mark.parametrize("refused,flags,missing", [
    (["numpy", "scipy"], [], "numpy"),
    (["numpy"], ["--radius-cut", "1"], "numpy"),
    (["scipy"], ["--radius-cut", "1"], "scipy"),
    (["scipy.spatial"], ["--radius-cut", "1"], "scipy.spatial"),
])
def test_orbit_without_the_extra_exits_2(sl4r_spec, refused, flags, missing):
    proc = run_refusing(refused, ["orbit", sl4r_spec, *flags])
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (f"input error: orbit needs {missing}, which is not "
                           'installed: pip install "weylgrowth[orbits]"\n')


def test_orbit_without_scipy_runs_without_a_radius_cut(sl4r_spec):
    proc = run_refusing(["scipy"], ["orbit", sl4r_spec, "--iota-check", "2"])
    assert (proc.returncode, proc.stderr) == (0, "")
    out = json.loads(proc.stdout)
    assert (out["points"], out["iota_symmetry"]["failures"]) == (21, 0)


def test_other_missing_modules_still_surface(sl4r_spec):
    proc = run_refusing(["weylgrowth.orbits"], ["orbit", sl4r_spec])
    assert proc.returncode == 1
    assert "Traceback" in proc.stderr
    assert proc.stderr.rstrip().endswith(
        "ModuleNotFoundError: No module named 'weylgrowth.orbits'")
