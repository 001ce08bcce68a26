"""Exit codes, stream discipline, and adapter faithfulness of the CLI."""

import hashlib
import json

import pytest

from nilq.cli import main
from nilq.randwalk import (
    RETURN_N_MAX_LIMIT,
    ExperimentConfig,
    coordinate_clt_stats,
    clt_csv,
    rank_experiment_csv,
    return_probability_exact,
    return_table_csv,
)


FULL_RANK = "2 2\na1^2\na2^2\n"
DEFICIENT = "2 2\na1^2 a2^2\na1 a2\n"


@pytest.fixture
def pres(tmp_path):
    p = tmp_path / "pres.txt"
    p.write_text(FULL_RANK)
    return str(p)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_json_on_stdout(capsys, pres):
    code, out, err = _run(capsys, "classify", pres)
    assert code == 0
    data = json.loads(out)
    assert data["regime"] == "FINITE"
    assert err  # human summary on stderr


def test_normalize_output(capsys, pres):
    code, out, _ = _run(capsys, "normalize", pres)
    assert code == 0
    data = json.loads(out)
    assert data["alphas"] == [2, 2]
    assert data["rank_full"] is True
    assert data["rewritten_relators"] == ["a1^2", "a2^2"]


def test_is_trivial(capsys, pres):
    code, out, _ = _run(capsys, "is-trivial", pres, "[a1,a2]^2")
    assert code == 0
    data = json.loads(out)
    assert data["trivial_in_G"] is True
    code, out, _ = _run(capsys, "is-trivial", pres, "[a1,a2]")
    assert json.loads(out)["trivial_in_G"] is False


def test_is_trivial_handles_generator_substitution(capsys, tmp_path):
    p = tmp_path / "sub.txt"
    p.write_text("2 2\na1 a2\n")
    code, out, _ = _run(capsys, "is-trivial", str(p), "a1 a2")
    assert code == 0 and json.loads(out)["trivial_in_G"] is True
    code, out, _ = _run(capsys, "is-trivial", str(p), "a1")
    assert code == 0 and json.loads(out)["trivial_in_G"] is False


def test_word_eval_infers_rank(capsys):
    code, out, _ = _run(capsys, "word-eval", "a2 a1")
    assert code == 0
    data = json.loads(out)
    assert data["m"] == 2
    assert data["alpha"] == [1, 1]
    assert data["gamma"] == [-1]
    # exponents are not generator indices
    code, out, _ = _run(capsys, "word-eval", "a1^5")
    assert code == 0 and json.loads(out)["m"] == 1
    code, out, _ = _run(capsys, "word-eval", "[a1,a2]^12")
    data = json.loads(out)
    assert code == 0 and data["m"] == 2 and data["gamma"] == [12]


def test_word_eval_explicit_rank(capsys):
    code, out, _ = _run(capsys, "word-eval", "a1", "--m", "3")
    data = json.loads(out)
    assert data["alpha"] == [1, 0, 0]


def test_rank_exp_matches_library(capsys, tmp_path):
    cfg = {"m": 2, "r": 1, "lengths": [5, 9], "trials": 30, "seed": 12}
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, _ = _run(capsys, "rank-exp", str(f))
    assert code == 0
    expected = rank_experiment_csv(ExperimentConfig(2, 1, (5, 9), 30, 12))
    assert out == expected
    assert '"seed": 12' in out.splitlines()[0]


def test_clt_csv_matches_library(capsys):
    code, out, _ = _run(capsys, "clt", "--m", "2", "--n", "50", "--trials", "40", "--seed", "6")
    assert code == 0
    assert out == clt_csv(coordinate_clt_stats(2, 50, 40, 6))


def test_escape_grid(capsys):
    code, out, _ = _run(
        capsys, "escape", "--m", "2", "--n", "30", "--n", "60",
        "--trials", "20", "--seed", "4",
    )
    assert code == 0
    body = out.strip().split("\n")
    assert len(body) == 4
    assert body[2].startswith("30,") and body[3].startswith("60,")


def test_return_prob_csv(capsys):
    code, out, _ = _run(capsys, "return-prob", "--m", "1", "--n-max", "6")
    assert code == 0
    assert out == return_table_csv(return_probability_exact(1, 6))
    code, out, _ = _run(capsys, "return-prob", "--m", "3", "--n-max", "120")
    assert code == 0
    assert out == return_table_csv(return_probability_exact(3, 120))


def test_return_prob_limits(capsys):
    over = str(RETURN_N_MAX_LIMIT + 1)
    code, out, _ = _run(capsys, "return-prob", "--m", "1", "--n-max", over)
    assert code == 1
    assert json.loads(out)["error"] == "ResourceLimitError"
    code, _, _ = _run(capsys, "return-prob", "--m", "1", "--n-max", "6", "--float")
    assert code == 2


def test_slope_csv(capsys):
    code, out, _ = _run(capsys, "slope", "--m", "1", "--n-lo", "50", "--n-hi", "80")
    assert code == 0
    header = out.strip().split("\n")[1]
    assert header == "m,n_lo,n_hi,slope,intercept"


def test_sz_check_json_format(capsys):
    code, out, _ = _run(capsys, "sz-check", "--r", "1", "--m", "2", "--b", "1", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] is True and data["zero_count"] == 1


# sha256 of the exact stdout of each experiment command, so that any change to
# a JSON or CSV byte shows; "{cfg}" is a rank-exp config file
_PINNED_OUTPUTS = [
    (("rank-exp", "{cfg}", "--format", "csv"),
     "5d6530cc8c4aa64df4cd3f23ba137d231417791ba9c4c60dba63e5f410bf7276"),
    (("rank-exp", "{cfg}", "--format", "json"),
     "2841550543cf1a2e3f087243c41c5bcc3943202fc46a6f07c49e356a044fbdde"),
    (("clt", "--m", "3", "--n", "40", "--trials", "30", "--seed", "6", "--format", "csv"),
     "e03d61912393149d2cd846bc3a0ac3980b085919799029445a08082c25902d24"),
    (("clt", "--m", "3", "--n", "40", "--trials", "30", "--seed", "6", "--format", "json"),
     "4b2a4f6b29a09f945e43ae6a9a88945783b32f0455ce93e2f52013d7a021e8bf"),
    # one trial: the variance standard errors are infinite
    (("clt", "--m", "2", "--n", "10", "--trials", "1", "--seed", "3", "--format", "csv"),
     "3ef8aa1c3553dbe06069e335f9adffcb5f37acf4ab0be147c10adbabe3dfdc9d"),
    (("clt", "--m", "2", "--n", "10", "--trials", "1", "--seed", "3", "--format", "json"),
     "179b1e811c8a5e1be6c630b6750244ac832bfea9483cf165ec35f72cf99f1396"),
    (("escape", "--m", "2", "--n", "30", "--n", "60", "--trials", "20", "--seed", "4",
      "--format", "csv"),
     "e2894913a075efd3151ae1cc0a732487f87c12ed7fe702d478ffc052bd2790ac"),
    (("escape", "--m", "2", "--n", "30", "--n", "60", "--trials", "20", "--seed", "4",
      "--format", "json"),
     "3b6934ed9558117fbd77dde16ad1d59cf80aa26b40b212a032421ade525557cf"),
    (("escape", "--m", "2", "--n", "16", "--trials", "10", "--seed", "1", "--epsilon", "0.5",
      "--format", "csv"),
     "e95e1f99f721fb87dc0dbe385ef29345c3805ecf9e35b33654c7184fdc10d092"),
    (("escape", "--m", "2", "--n", "16", "--trials", "10", "--seed", "1", "--epsilon", "0.5",
      "--format", "json"),
     "664320c1418c2175da00d87d31ed547483187d094b2dc1db210f16c95163e143"),
    (("slope", "--m", "2", "--n-lo", "10", "--n-hi", "30", "--format", "csv"),
     "5bb6f8fa0dac2d544ba2e9cb32355183976e90ccad787d2dc50c049f32f3c1b5"),
    (("slope", "--m", "2", "--n-lo", "10", "--n-hi", "30", "--format", "json"),
     "ad4493f38e4787befbb7ceaf83570b532070a1ae55f5c8fce21dd68dcd903264"),
    (("sz-check", "--r", "1", "--m", "2", "--b", "1", "--format", "csv"),
     "68fee884bf51493f66eca0423161b2429c15ffabdd2ad4fa7de97e8ff47640bd"),
    (("sz-check", "--r", "1", "--m", "2", "--b", "1", "--format", "json"),
     "848f202f89fb4e62b52ed27fa71d91853e73fa60631c4e843e088847cc72528c"),
    (("return-prob", "--m", "2", "--n-max", "12"),
     "d81c0d3c50263012d2e2af6a0cb927d49c0c6ac5bc1e36ede0a8318ccac18f72"),
]


@pytest.mark.parametrize(
    "argv,digest", _PINNED_OUTPUTS, ids=["-".join(a[:1] + a[-1:]) for a, _ in _PINNED_OUTPUTS]
)
def test_experiment_output_bytes_pinned(capsys, tmp_path, argv, digest):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"m": 2, "r": 2, "lengths": [4, 9], "trials": 25, "seed": 12}))
    code, out, _ = _run(capsys, *(a.replace("{cfg}", str(cfg)) for a in argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


def test_compile_then_solve(capsys, tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({
        "variables": ["x"],
        "equations": [[["*", ["var", "x"], ["var", "x"]], ["const", 4]]],
    }))
    code, out, _ = _run(capsys, "compile", str(ring))
    assert code == 0
    group = tmp_path / "group.json"
    group.write_text(out)
    code, out, _ = _run(capsys, "solve-bounded", str(group), "--box", "8", "--first")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "group"
    assert len(data["solutions"]) == 1


def test_solve_bounded_ring(capsys, tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({
        "variables": ["x"],
        "equations": [[["*", ["var", "x"], ["var", "x"]], ["const", 4]]],
    }))
    code, out, _ = _run(capsys, "solve-bounded", str(ring), "--box", "5")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "ring"
    assert data["solutions"] == [{"x": -2}, {"x": 2}]


def test_solve_bounded_ring_obeys_limit(capsys, tmp_path):
    ring = tmp_path / "ring.json"
    x, y = (["var", v] for v in "xy")
    ring.write_text(json.dumps({"variables": ["x", "y"], "equations": [[["+", x, y], ["const", 1]]]}))
    code, out, _ = _run(capsys, "solve-bounded", str(ring), "--box", "3", "--limit", "10")
    assert code == 1
    assert json.loads(out) == {
        "error": "SearchSpaceError", "message": "49 assignments exceed the limit 10"}


def test_negative_boxes_exit_1(capsys, tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"variables": ["x"], "equations": [[["var", "x"], ["const", 0]]]}))
    group = tmp_path / "group.json"
    group.write_text(json.dumps({
        "variables": ["x"], "constants": ["a", "b"], "equations": [[[["x", 1]], []]]}))
    for argv in (("solve-bounded", str(group), "--box", "-1"),
                 ("verify", str(ring), "--box-ring", "2", "--box-group", "-1")):
        code, out, _ = _run(capsys, *argv)
        assert code == 1
        assert json.loads(out) == {"error": "ValueError", "message": "bound must be nonnegative"}


@pytest.mark.parametrize("field,value", [
    ("trials", 2.5), ("lengths", [2.5]), ("seed", "x"), ("m", True),
])
def test_rank_exp_config_types_exit_2(capsys, tmp_path, field, value):
    cfg = {"m": 2, "r": 1, "lengths": [5], "trials": 3, "seed": 1}
    cfg[field] = value
    f = tmp_path / "cfg.json"
    f.write_text(json.dumps(cfg))
    code, out, err = _run(capsys, "rank-exp", str(f))
    assert code == 2 and out == ""
    assert "bad experiment config" in err


def test_verify_small(capsys, tmp_path):
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({
        "variables": ["x"],
        "equations": [[["var", "x"], ["const", 0]]],
    }))
    code, out, _ = _run(capsys, "verify", str(ring), "--box-ring", "2", "--box-group", "3")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True


def test_verify_grid_over_limit_exit_1(capsys, tmp_path):
    # (2*1000+1)^3 grid points: refused before any search, not run for hours
    ring = tmp_path / "ring.json"
    x, y, z = (["var", v] for v in "xyz")
    ring.write_text(json.dumps({"variables": ["x", "y", "z"], "equations": [[["+", x, y], z]]}))
    code, out, _ = _run(capsys, "verify", str(ring), "--box-ring", "1", "--box-group", "1000")
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "SearchSpaceError"
    assert "8012006001 grid points" in data["message"]


def test_oversized_word_exit_1(capsys, pres):
    for argv in (("word-eval", "a1^1000000000"), ("is-trivial", pres, "a2^-1000000000 a1")):
        code, out, _ = _run(capsys, *argv)
        assert code == 1
        data = json.loads(out)
        assert data["error"] == "ValueError"
        assert "over the limit" in data["message"]


def test_rank_deficient_is_trivial_exit_0(capsys, tmp_path):
    # the deficient presentation is Z, generated by a1
    p = tmp_path / "weak.txt"
    p.write_text(DEFICIENT)
    code, out, _ = _run(capsys, "is-trivial", str(p), "a1")
    assert code == 0
    data = json.loads(out)
    assert data["trivial_in_G"] is False and data["trivial_mod_torsion"] is False
    # <a1, a2 | [a1, a2]> is Z^2
    p.write_text("2 2\n[a1,a2]\n")
    code, out, _ = _run(capsys, "is-trivial", str(p), "a1 a2 a1^-1 a2^-1")
    assert code == 0
    assert json.loads(out) == {
        "word": "a1 a2 a1^-1 a2^-1", "trivial_in_G": True, "trivial_mod_torsion": True}


def test_solve_bounded_rank_deficient_presentation(capsys, tmp_path):
    # a repeated relator leaves the quotient of <a1, a2, a3 | a1^2> unchanged
    pres = tmp_path / "pres.txt"
    pres.write_text("3 2\na1^2\na1^2\n")
    group = tmp_path / "group.json"
    group.write_text(json.dumps({
        "variables": ["x"],
        "constants": ["a", "b"],
        "equations": [[[["x", 1]], [["comm", [["a", 1]], [["b", 1]]]]]],
    }))
    code, out, _ = _run(capsys, "solve-bounded", str(group), "--box", "1",
                        "--presentation", str(pres))
    assert code == 0
    assert len(json.loads(out)["solutions"]) == 1


def test_usage_errors_exit_2(capsys, tmp_path):
    code, _, _ = _run(capsys, "classify", str(tmp_path / "missing.txt"))
    assert code == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\nb1\n")
    code, _, _ = _run(capsys, "classify", str(bad))
    assert code == 2
    code, _, _ = _run(capsys, "clt", "--m", "2")  # missing required seed
    assert code == 2
    code, _, _ = _run(capsys, "no-such-command")
    assert code == 2


def test_bad_word_argument_exit_2(capsys, pres):
    code, _, _ = _run(capsys, "is-trivial", pres, "a1^")
    assert code == 2
