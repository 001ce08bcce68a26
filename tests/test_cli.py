"""Exit codes, stream discipline, and adapter faithfulness of the CLI."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import nilq
from nilq.cli import main
from nilq.diophantine import MAX_NESTING
from nilq.words import MAX_RELATORS, MAX_WORD_LETTERS, exponent_sums, parse_word
from nilq.zmatrix import ElementaryOp
from nilq.randwalk import (
    RETURN_N_MAX_LIMIT,
    ExperimentConfig,
    coordinate_clt_stats,
    clt_csv,
    rank_experiment,
    rank_experiment_csv,
    return_probability_exact,
    return_table_csv,
)

from naive_oracles import apply_op


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
    assert data["d_pq"] == [2]
    # columns a1, a2 and [a1,a2], which d_12 = 2 keeps
    assert data["echelon"] == {"columns": ["a1", "a2", "[a1,a2]"],
                               "rows": [[2, 0, 0], [0, 2, 0], [0, 0, 2]],
                               "pivots": [0, 1, 2]}


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
    config = ExperimentConfig(2, 1, (5, 9), 30, 12)
    expected = rank_experiment_csv(config, rank_experiment(config))
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


# sha256 of the exact stdout of the equation and classifier commands; the
# ring, group and presentation inputs are below, "{name}" is a path to one
_SYSTEM_FILES = {
    "ring.json": {"variables": ["x"],
                  "equations": [[["*", ["var", "x"], ["var", "x"]], ["const", 4]]]},
    "ring2.json": {"variables": ["x", "y"], "equations": [
        [["-", ["var", "x"], ["var", "y"]], ["const", 1]],
        [["*", ["var", "x"], ["var", "y"]], ["const", 2]]]},
    "group.json": {"variables": ["x", "y"], "constants": ["a", "b"], "equations": [
        [[["x", 1]], [["comm", [["a", 1]], [["y", 1]], -1]]],
        [[["comm", [["y", 1]], [["b", 1]]]], []]]},
    "quot.txt": "4 2\na1^2 a2\n[a1,a2]^3\n",
    "undecidable.txt": "4 2\na1 a2^2 a3\na2 a4^-1 a1\n",
    "virt.txt": "3 2\na1^2 a2\na2 a3^3\n",
    "class3.txt": "3 3\na1^2 a2\na2 a3^3\n",
    "finite.txt": "2 2\na1^2\na2^3 a1\n",
    "finab.txt": "2 3\na1^2\na2^2\na1 a2 a1\n",
    "deficient.txt": DEFICIENT,
    "big.txt": "65 2\na1 a2\n",
    "big.json": {"m": 65, "r": 1, "lengths": [4], "trials": 1, "seed": 1},
}
_PINNED_SYSTEM_OUTPUTS = [
    (("compile", "{ring.json}"),
     "345c5905098615d512013f7861c0a5c79bf242f459c7210b23011001e841bf49"),
    (("compile", "{ring2.json}"),
     "bbfbdc6948ff2b023b0b342b3b6fa5f702b539460fd66d37991124978b2d6027"),
    (("solve-bounded", "{ring.json}", "--box", "5"),
     "43babd752b85c6a743f547bac71c9b5ba930895939b7f94f87e150408981275f"),
    (("solve-bounded", "{ring2.json}", "--box", "3"),
     "3405c0c70a7d12105fb02d198c927cc4d927761b772131400ea35d94b76282cf"),
    (("solve-bounded", "{group.json}", "--box", "1"),
     "1789728f899be255b7bf9f493b32b507b93182f5588b5e49a318966bc8c4c9ba"),
    (("solve-bounded", "{group.json}", "--box", "1", "--m", "3", "--first"),
     "26e929c9b70596b04767b11d39b738e76d714e1a7e140055b994ac5877bd2a95"),
    (("solve-bounded", "{group.json}", "--box", "1", "--presentation", "{quot.txt}"),
     "7f572d324c0b72d9760deb6e49bb06f5e779c2ea1362b66d49f3db71c50bacff"),
    (("verify", "{ring.json}", "--box-ring", "3", "--box-group", "3"),
     "8249a8bac082ae8f52884acf2e5812a0c146b7840d898bbb3471762cbfd888b3"),
    (("verify", "{ring2.json}", "--box-ring", "2", "--box-group", "2", "--m", "3"),
     "a68115c80f3c3abfa0620a5d0eede1e6391a877d1028939dc584e400bf5db8e3"),
    (("verify", "{ring.json}", "--box-ring", "2", "--box-group", "2",
      "--presentation", "{quot.txt}"),
     "e07154edc21b6d110754a8f4072a266cc8234e8e71cfdba8ea8837efb8fbc24b"),
    (("classify", "{undecidable.txt}"),
     "27277ad4964962b9ee5e69effe25e49cfc55e6fb6ac8218a4ef7cd7f927e20a4"),
    (("classify", "{virt.txt}"),
     "4688665ccc294c5076cc82e4f332233f7b98fe2618a676ca6374e094bc2b7aaa"),
    (("classify", "{class3.txt}"),
     "d604003d5548ad82a409a23505f5f9fbbb898d6a379127765726658b260ef999"),
    (("classify", "{finite.txt}"),
     "57598d68f3670e6c2ca0c6ce7aeee802cbf350b07f5ac3564e28ef2a269ef338"),
    (("classify", "{finab.txt}"),
     "ff96ffba6fc2895518ddfc3fba3ebdb121fd08abcd78f60218c53acee1e42fa9"),
    (("classify", "{deficient.txt}"),
     "b0e574ca22a166411a5595cbdae48a199f0d317b17208942c639d1863dde976d"),
]


def _with_system_files(tmp_path, argv):
    """argv with each "{name}" replaced by the path of _SYSTEM_FILES[name]."""
    for name, content in _SYSTEM_FILES.items():
        (tmp_path / name).write_text(content if isinstance(content, str) else json.dumps(content))
    return [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]


@pytest.mark.parametrize(
    "argv,digest",
    _PINNED_SYSTEM_OUTPUTS,
    ids=[" ".join(a).replace("{", "").replace("}", "") for a, _ in _PINNED_SYSTEM_OUTPUTS],
)
def test_system_output_bytes_pinned(capsys, tmp_path, argv, digest):
    code, out, _ = _run(capsys, *_with_system_files(tmp_path, argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


# sha256 of the exact stdout of normalize and is-trivial on the presentations
# of _SYSTEM_FILES within the rank limit.  The three words are a relator
# (trivial), a word trivial only modulo torsion where the group has torsion
# (finite.txt, finab.txt; a generator or its square elsewhere), and a
# commutator (central)
_PINNED_PRESENTATION_OUTPUTS = [
    (("normalize", "{quot.txt}"),
     "8be4e1ec257353c69b2003e8f33b4a1cedb3889cc0a3a73402e3243eeeb5c216"),
    (("is-trivial", "{quot.txt}", "a1^2 a2"),
     "73ea5c19967b324537250a0610d06f24efeef18cc356d1187b8b24290c728280"),
    (("is-trivial", "{quot.txt}", "a3^2"),
     "f3e3cc3c8df1ac1282ef39d4fd8ee83b854539ac1101d97fe15bd7709c66dc92"),
    (("is-trivial", "{quot.txt}", "[a1,a3]"),
     "f7e4fb9691f220a2157c02ed329e487957156a19de23f865951314f36526609a"),
    (("normalize", "{undecidable.txt}"),
     "db63c3f4ba771408a06c38f1b3ccd94565f2a3f5dfbd2ed51d4d9a7582f795cc"),
    (("is-trivial", "{undecidable.txt}", "a1 a2^2 a3"),
     "32c4da8f80d4bd0a628d91dec766717b85fe22afe84c98b1d9398f4237aa559c"),
    (("is-trivial", "{undecidable.txt}", "a3"),
     "c1281d82ae57053cc45d1224022f738326aa26414e8fc3de4f6d7d1b13888045"),
    (("is-trivial", "{undecidable.txt}", "[a3,a4]"),
     "58c6d3eac56d1e19717a80a3abd0676ece1f0789f0dd29e65bc7c9418631e739"),
    (("normalize", "{virt.txt}"),
     "1cc9fd181c2c827a009cca010b0d145038d1f83eb7526d3b978bdc118b6cb693"),
    (("is-trivial", "{virt.txt}", "a2 a3^3"),
     "e1a3988a583bc3d0bc898bffd06ec8ef84fccf5762930bc984a9eb26f4f00915"),
    (("is-trivial", "{virt.txt}", "a1"),
     "fc8c796d8232b4c0d12a0f3ad70b5e8415f7833119dd5da7ac3d769262f520cb"),
    (("is-trivial", "{virt.txt}", "[a1,a2]"),
     "e50d317325b883ac3adf5edcf45821e74d96cebb2b50dfe494be5e8c3dc38ab2"),
    (("normalize", "{class3.txt}"),
     "acbda9498f53cc200468dc0e4c6c227efbfc6cfd4606ae6e58fb8800ccee9b3c"),
    (("is-trivial", "{class3.txt}", "a2 a3^3"),
     "e1a3988a583bc3d0bc898bffd06ec8ef84fccf5762930bc984a9eb26f4f00915"),
    (("is-trivial", "{class3.txt}", "a1"),
     "fc8c796d8232b4c0d12a0f3ad70b5e8415f7833119dd5da7ac3d769262f520cb"),
    (("is-trivial", "{class3.txt}", "[a1,a2]"),
     "e50d317325b883ac3adf5edcf45821e74d96cebb2b50dfe494be5e8c3dc38ab2"),
    (("normalize", "{finite.txt}"),
     "ec291210d9a20bae33413a5a8d236df54967d85455bd348f9521c0570952a5e4"),
    (("is-trivial", "{finite.txt}", "a2^3 a1"),
     "8e701f03f76cdbb314471cd26953a818539ffa5e40ab53978ba85af2da0bac2a"),
    (("is-trivial", "{finite.txt}", "a1"),
     "cfb1a115f913e6b577737cfeff39180b7d486e60ee94faea3d054646ee6ef14e"),
    (("is-trivial", "{finite.txt}", "[a1,a2]"),
     "e50d317325b883ac3adf5edcf45821e74d96cebb2b50dfe494be5e8c3dc38ab2"),
    (("normalize", "{finab.txt}"),
     "9f31879af65db93c9cebdd4fbaaf2936f525d50c0000b9aa30f1172cc600f2a1"),
    (("is-trivial", "{finab.txt}", "a1 a2 a1"),
     "d7dc09f90ee72375d7b1ea1e525ba26260ba7fbe0394bf2054fa303d1619428d"),
    (("is-trivial", "{finab.txt}", "a1"),
     "cfb1a115f913e6b577737cfeff39180b7d486e60ee94faea3d054646ee6ef14e"),
    (("is-trivial", "{finab.txt}", "[a1,a2]"),
     "e50d317325b883ac3adf5edcf45821e74d96cebb2b50dfe494be5e8c3dc38ab2"),
    (("normalize", "{deficient.txt}"),
     "e120aa0cf7c2d9dcfff61dcf0131814c797995913e480ffa5aeefc76f98048c9"),
    (("is-trivial", "{deficient.txt}", "a1 a2"),
     "87409c03a44cce81e1889c8c9e3645810a3bfbde6fb2b5cf5e8cc41d0d1693cb"),
    (("is-trivial", "{deficient.txt}", "a1^2"),
     "5ac380a15073c8499aa3b9c954785404590a146ca7d07a5c0f6ddf7c4b2610f7"),
    (("is-trivial", "{deficient.txt}", "[a1,a2]"),
     "e50d317325b883ac3adf5edcf45821e74d96cebb2b50dfe494be5e8c3dc38ab2"),
]


@pytest.mark.parametrize(
    "argv,digest",
    _PINNED_PRESENTATION_OUTPUTS,
    ids=[" ".join(a).replace("{", "").replace("}", "") for a, _ in _PINNED_PRESENTATION_OUTPUTS],
)
def test_presentation_output_bytes_pinned(capsys, tmp_path, argv, digest):
    code, out, _ = _run(capsys, *_with_system_files(tmp_path, argv))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest, out


@pytest.mark.parametrize(
    "name", [a[1][1:-1] for a, _ in _PINNED_PRESENTATION_OUTPUTS if a[0] == "normalize"]
)
def test_normalize_smith_ops_reduce_the_relators(capsys, tmp_path, name):
    # the printed ops, replayed one at a time on the exponent-sum matrix of
    # the file's relators, leave the printed invariant factors on a diagonal
    code, out, _ = _run(capsys, *_with_system_files(tmp_path, ("normalize", "{%s}" % name)))
    assert code == 0
    data = json.loads(out)
    m, *lines = _SYSTEM_FILES[name].splitlines()
    m = int(m.split()[0])
    M = tuple(exponent_sums(parse_word(line, m)) for line in lines)
    for entry in data["smith_ops"]:
        M = apply_op(M, ElementaryOp(**entry))
    factors = data["invariant_factors"]
    assert M == tuple(tuple(factors[i] if i == j and i < len(factors) else 0 for j in range(m))
                      for i in range(len(lines)))
    assert data["rank"] == len(factors)


# sha256 of the exact stdout of sz-check on square, wide and tall shapes and of
# rank-exp with r < m ("{wide.json}") and r > m ("{tall.json}")
_RANK_EXP_CONFIGS = {
    "wide.json": {"m": 4, "r": 2, "lengths": [4, 9], "trials": 25, "seed": 12},
    "tall.json": {"m": 2, "r": 3, "lengths": [4, 9], "trials": 25, "seed": 12},
}
_PINNED_SHAPE_OUTPUTS = [
    (("sz-check", "--r", "2", "--m", "2", "--b", "1", "--format", "csv"),
     "de667290da7325138ba694a62075be59359f395bbe7be0deaca0aaff27d5c8f7"),
    (("sz-check", "--r", "2", "--m", "2", "--b", "1", "--format", "json"),
     "b1444a72755fda19d07aa4fcc3ff06b4329e51657ee8516b77736da779a8a53d"),
    (("sz-check", "--r", "2", "--m", "3", "--b", "1", "--format", "csv"),
     "8f67e7966f8f4b731bf13db3f7eec95de683af351fb988e078873319a9d7a79b"),
    (("sz-check", "--r", "2", "--m", "3", "--b", "1", "--format", "json"),
     "de3c7fc2c9d7ef52e26075732d270fb313b0a0533bdff84acabd0e6ce075aa13"),
    (("sz-check", "--r", "3", "--m", "2", "--b", "1", "--format", "csv"),
     "99435c9b3d07fcb9d4b2db402f1fccf4392e7fda56179de58efb7e1231ea1acd"),
    (("sz-check", "--r", "3", "--m", "2", "--b", "1", "--format", "json"),
     "cbbd6f511060cb59669f86e05184637ceaeaf250885e7841c0f09af51a551987"),
    (("rank-exp", "{wide.json}", "--format", "csv"),
     "106e3be49bddc8bf5401ea25eb7786f66851ba5e99dd83495c39a12cad14b66a"),
    (("rank-exp", "{wide.json}", "--format", "json"),
     "7ba5e7db16c10dba6b44811ac9006d80b0fb70cfe01530fe9a25c6bc2a4ad326"),
    (("rank-exp", "{tall.json}", "--format", "csv"),
     "0a94c6d6605ae2058ca65a469ae9e51bdc0b7b913433ef73a2a13c230d6e37be"),
    (("rank-exp", "{tall.json}", "--format", "json"),
     "65807db249610184191d7099ede641ef497acd5b982134fbf2713b9d9ef5f11d"),
]


@pytest.mark.parametrize(
    "argv,digest",
    _PINNED_SHAPE_OUTPUTS,
    ids=[" ".join(a).replace("{", "").replace("}", "") for a, _ in _PINNED_SHAPE_OUTPUTS],
)
def test_shape_output_bytes_pinned(capsys, tmp_path, argv, digest):
    for name, cfg in _RANK_EXP_CONFIGS.items():
        (tmp_path / name).write_text(json.dumps(cfg))
    argv = [str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv]
    code, out, _ = _run(capsys, *argv)
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
    code, out, _ = _run(capsys, "solve-bounded", str(ring), "--box", "5", "--first")
    assert code == 0
    assert json.loads(out)["solutions"] == [{"x": -2}]


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


@pytest.mark.parametrize("argv,error", [
    # 3^90000 has more decimal digits than int-to-str converts
    (("sz-check", "--r", "300", "--m", "300", "--b", "1"), "EnumerationLimitError"),
    (("clt", "--m", "2", "--n", str(2**63), "--trials", "1", "--seed", "1"), "ValueError"),
    (("escape", "--m", "2", "--n", str(2**63), "--trials", "1", "--seed", "1"), "ValueError"),
    # a count of 3^(9 * 10^7) matrices is refused from its exponent
    (("sz-check", "--r", "3000", "--m", "30000", "--b", "1"), "EnumerationLimitError"),
])
def test_sizes_past_the_engines_exit_1(capsys, argv, error):
    t0 = time.perf_counter()
    code, out, _ = _run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    assert json.loads(out)["error"] == error


@pytest.mark.parametrize("command,error", [
    ("sz-check", "EnumerationLimitError"), ("verify", "SearchSpaceError"),
    ("solve-bounded", "SearchSpaceError"),
])
def test_huge_box_sides_exit_1(capsys, tmp_path, command, error):
    # a side of hundreds of digits to a small power: refused from the side,
    # with no count converted past int-to-str's 4300 digits
    ring = tmp_path / "ring.json"
    ring.write_text(json.dumps({"variables": ["x", "y", "z", "w"],
                                "equations": [[["+", ["var", "x"], ["var", "y"]], ["var", "z"]]]}))
    argv = {
        "sz-check": ("sz-check", "--r", "4", "--m", "5", "--b", str(10**250)),
        "verify": ("verify", str(ring), "--box-ring", "1", "--box-group", str(10**1200)),
        "solve-bounded": ("solve-bounded", str(ring), "--box", str(10**1200)),
    }[command]
    t0 = time.perf_counter()
    code, out, _ = _run(capsys, *argv)
    assert time.perf_counter() - t0 < 1.0
    assert code == 1
    data = json.loads(out)
    assert data["error"] == error
    side = 2 * int(argv[-1]) + 1
    n = 20 if command == "sz-check" else 4
    what = {"sz-check": "matrices", "verify": "grid points", "solve-bounded": "assignments"}[command]
    limit = 4_000_000 if command == "sz-check" else 20_000_000
    assert data["message"] == f"{side}^{n} {what} exceed the limit {limit}"


def test_solve_bounded_wide_box_is_lazy(capsys, tmp_path):
    # 2*10^7 + 1 values per coordinate are never listed
    system = tmp_path / "comm.json"
    system.write_text(json.dumps({"variables": ["y"], "constants": ["a", "b"],
                                  "equations": [[[["comm", [["a", 1]], [["y", 1]]]], []]]}))
    t0 = time.perf_counter()
    code, out, _ = _run(capsys, "solve-bounded", str(system), "--box", "10000000", "--first")
    assert code == 0
    assert json.loads(out)["solutions"] == [{"y": {"alpha": [0, 0], "gamma": [0]}}]
    code, out, _ = _run(capsys, "solve-bounded", str(system), "--box", "10000000", "--limit", "1000")
    assert code == 1
    assert json.loads(out) == {"error": "SearchSpaceError", "message": "evaluation limit exceeded"}
    assert time.perf_counter() - t0 < 1.0


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


def test_solve_bounded_undeclared_ambient_constant_exit_2(capsys, tmp_path):
    group = tmp_path / "group.json"
    group.write_text(json.dumps({
        "variables": ["x"], "constants": ["c"], "equations": [[[["x", 1]], [["c", 1]]]]}))
    code, out, err = _run(capsys, "solve-bounded", str(group), "--box", "1")
    assert code == 2 and out == ""
    assert err == "error: bad group system: constants not in the ambient: ['c']\n"


_BRACKET = [["a", 1]], [["b", 1]]


@pytest.mark.parametrize("system,kind", [
    ({"variables": ["x"], "constants": ["a", "b"],
      "equations": [[[["x", 1]], [["comm", *_BRACKET, "2"]]]]}, "group"),
    ({"variables": ["x"], "constants": ["a", "b"],
      "equations": [[[["x", 1]], [["comm", *_BRACKET, 1.5]]]]}, "group"),
    ({"variables": ["x"], "constants": ["a", "b"],
      "equations": [[[["x", True]], [["a", 1]]]]}, "group"),
    ({"variables": ["x"], "equations": [[["var", "x"], ["const", True]]]}, "ring"),
    ({"variables": ["x"], "equations": [[["var", "x"]]]}, "ring"),
    ({"variables": ["x"], "constants": ["a", "b"], "equations": [[[["x", 1]]]]}, "group"),
    ({"variables": "xy", "equations": [[["var", "x"], ["var", "y"]]]}, "ring"),
    ({"variables": ["x"], "constants": "ab", "equations": [[[["x", 1]], [["a", 1]]]]}, "group"),
    (5, "ring"),
], ids=["bracket exponent string", "bracket exponent float", "generator exponent true",
        "const true", "one-sided ring equation", "one-sided group equation",
        "variables string", "constants string", "number"])
def test_solve_bounded_rejects_non_integer_numbers_exit_2(capsys, tmp_path, system, kind):
    # a bracket exponent is checked like a generator's, and JSON true is no 1;
    # an equation is a pair, names come in a list, and a system is an object
    f = tmp_path / "system.json"
    f.write_text(json.dumps(system))
    code, out, err = _run(capsys, "solve-bounded", str(f), "--box", "1")
    assert code == 2 and out == ""
    assert err.startswith(f"error: bad {kind} system: ")


def _nested_minus(depth):
    term = ["var", "x"]
    for _ in range(depth):
        term = ["-", term]
    return {"variables": ["x"], "equations": [[term, ["const", 0]]]}


@pytest.mark.parametrize("cmd", [("solve-bounded", "--box", "1"),
                                 ("verify", "--box-ring", "1", "--box-group", "1")])
def test_deep_ring_term_is_a_bad_ring_system_exit_2(capsys, tmp_path, cmd):
    # 500 levels ran past the recursion limit; MAX_NESTING levels still solve
    f = tmp_path / "ring.json"
    f.write_text(json.dumps(_nested_minus(500)))
    code, out, err = _run(capsys, cmd[0], str(f), *cmd[1:])
    assert code == 2 and out == ""
    assert err == "error: bad ring system: term nested deeper than 100\n"
    f.write_text(json.dumps(_nested_minus(MAX_NESTING - 1)))
    assert _run(capsys, cmd[0], str(f), *cmd[1:])[0] == 0


def test_json_too_deep_to_read_is_a_usage_error_exit_2(capsys, tmp_path):
    # 495 brackets are about 990 nested arrays: json.loads itself gives up
    word = '[["x", 1]]'
    for _ in range(495):
        word = f'[["comm", {word}, [["a", 1]]]]'
    f = tmp_path / "group.json"
    f.write_text(f'{{"variables": ["x"], "constants": ["a", "b"], "equations": [[{word}, []]]}}')
    code, out, err = _run(capsys, "solve-bounded", str(f), "--box", "1")
    assert code == 2 and out == ""
    assert err == f"error: {f} nests too deeply to read\n"
    # an integer past Python's 4300-digit string limit is no JSON it reads
    huge = "9" * 5000
    f.write_text(f'{{"variables": ["x"], "equations": [[["var", "x"], ["const", {huge}]]]}}')
    for cmd in (("solve-bounded", "--box", "1"), ("verify", "--box-ring", "1", "--box-group", "1")):
        code, out, err = _run(capsys, cmd[0], str(f), *cmd[1:])
        assert code == 2 and out == ""
        assert err.startswith(f"error: {f} is not valid JSON: Exceeds the limit")
    f.write_text(f'{{"m": {huge}, "r": 1, "lengths": [4], "trials": 3, "seed": 1}}')
    code, out, err = _run(capsys, "rank-exp", str(f))
    assert code == 2 and out == ""
    assert err.startswith(f"error: {f} is not valid JSON: Exceeds the limit")


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


def test_relator_syntax_error_names_its_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\na1 a2\na1 !\n")
    code, out, err = _run(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 3: unexpected character '!' (position 3)\n"
    # a superscript digit is no digit of the grammar
    bad.write_text("2 2\na1\u00b2\n", encoding="utf-8")
    code, out, err = _run(capsys, "classify", str(bad))
    assert code == 2 and out == ""
    assert err == f"error: {bad}: line 2: unexpected character '\u00b2' (position 2)\n"


def _run_process(*args, timeout=None):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nilq.__file__)))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


def _run_capped(argv, address_space, timeout):
    """The CLI on argv in a child process whose address space is capped at
    address_space bytes, as (exit code, stdout).  A run past timeout seconds
    raises TimeoutExpired, and a traceback fails the test."""
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_AS, ({address_space}, {address_space}))\n"
              "from nilq.cli import main\n"
              f"sys.exit(main({argv!r}))\n")
    proc = _run_process("-c", script, timeout=timeout)
    assert "Traceback" not in proc.stderr, proc.stderr
    return proc.returncode, proc.stdout


def test_main_twice_in_one_process_matches_separate_processes(capsys, tmp_path):
    group = tmp_path / "group.json"
    group.write_text(json.dumps(_SYSTEM_FILES["group.json"]))
    calls = [("solve-bounded", str(group), "--box", "1", "--first"),
             ("solve-bounded", str(group), "--box", "1")]
    in_process = [_run(capsys, *argv) for argv in calls]
    separate = [_run_process("-m", "nilq.cli", *argv) for argv in calls]
    assert in_process == [(p.returncode, p.stdout, p.stderr) for p in separate]
    assert in_process[0][1] != in_process[1][1]


def test_import_cli_leaves_numpy_unloaded():
    proc = _run_process("-c", "import sys, nilq.cli; print('numpy' in sys.modules)")
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr


# m = 65 is one past words.MAX_RANK; test_words checks that a far larger m
# is refused before anything of that size is built
@pytest.mark.parametrize("argv", [
    ("classify", "{big.txt}"),
    ("normalize", "{big.txt}"),
    ("is-trivial", "{big.txt}", "a1"),
    ("word-eval", "a1", "--m", "65"),
    ("word-eval", "a1 a65"),
    ("solve-bounded", "{group.json}", "--box", "0", "--m", "65"),
    ("solve-bounded", "{group.json}", "--box", "0", "--presentation", "{big.txt}"),
    ("verify", "{ring.json}", "--box-ring", "0", "--box-group", "0", "--m", "65"),
    ("verify", "{ring.json}", "--box-ring", "0", "--box-group", "0",
     "--presentation", "{big.txt}"),
    ("rank-exp", "{big.json}"),
    ("clt", "--m", "65", "--n", "5", "--trials", "1", "--seed", "1"),
    ("escape", "--m", "65", "--n", "5", "--trials", "1", "--seed", "1"),
], ids=lambda argv: " ".join(argv).replace("{", "").replace("}", ""))
def test_rank_over_limit_exit_1(capsys, tmp_path, argv):
    code, out, _ = _run(capsys, *_with_system_files(tmp_path, argv))
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "RankLimitError"
    assert "over the limit of 64" in data["message"]


# one relator over words.MAX_RELATORS, refused before it is parsed
@pytest.mark.parametrize("argv", [
    ("classify", "{many.txt}"),
    ("normalize", "{many.txt}"),
    ("is-trivial", "{many.txt}", "a1"),
    ("solve-bounded", "{group.json}", "--box", "0", "--presentation", "{many.txt}"),
    ("verify", "{ring.json}", "--box-ring", "0", "--box-group", "0",
     "--presentation", "{many.txt}"),
    ("rank-exp", "{many.json}"),
], ids=lambda argv: " ".join(argv).replace("{", "").replace("}", ""))
def test_relator_count_over_limit_exit_1(capsys, tmp_path, argv):
    (tmp_path / "many.txt").write_text("2 2\n" + "a1 a2^2\n" * (MAX_RELATORS + 1))
    (tmp_path / "many.json").write_text(json.dumps(
        {"m": 2, "r": MAX_RELATORS + 1, "lengths": [4], "trials": 1, "seed": 1}))
    code, out, _ = _run(capsys, *_with_system_files(tmp_path, argv))
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "RankLimitError"
    assert f"over the limit of {MAX_RELATORS}" in data["message"]


# a relator line over words.MAX_WORD_LETTERS is a resource limit, as the same
# word given as an argument is, not a usage error
@pytest.mark.parametrize("argv", [
    ("classify", "{long.txt}"),
    ("is-trivial", "{long.txt}", "a1"),
], ids=lambda argv: " ".join(argv).replace("{", "").replace("}", ""))
def test_relator_letters_over_limit_exit_1(capsys, tmp_path, argv):
    (tmp_path / "long.txt").write_text(f"2 2\na1^{MAX_WORD_LETTERS + 1}\n")
    code, out, _ = _run(capsys, *_with_system_files(tmp_path, argv))
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "RankLimitError"
    assert data["message"].startswith("line 2: word expands to")
    assert f"over the limit of {MAX_WORD_LETTERS}" in data["message"]


def test_bad_word_argument_exit_2(capsys, pres):
    code, _, _ = _run(capsys, "is-trivial", pres, "a1^")
    assert code == 2
    code, out, err = _run(capsys, "word-eval", "a\u00b2")
    assert code == 2 and out == ""
    assert err == "error: word: expected generator index after 'a' (position 1)\n"


# an index or exponent of 5000 digits, past int()'s digit limit, is a syntax
# error at its digits, given as an argument or as a presentation line alike
_LONG = "9" * 5000
_TOO_LONG = "integer of 5000 digits is too long"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="int() has no digit limit before Python 3.10.7")
@pytest.mark.parametrize("argv,err", [
    (("word-eval", "--m", "2", f"a{_LONG}"), f"error: word: {_TOO_LONG} (position 1)\n"),
    (("word-eval", "--m", "2", f"a1^{_LONG}"), f"error: word: {_TOO_LONG} (position 3)\n"),
    (("is-trivial", "{quot.txt}", f"a1^{_LONG}"), f"error: word: {_TOO_LONG} (position 3)\n"),
    (("word-eval", f"a{_LONG}"), f"error: word: {_TOO_LONG} (position 1)\n"),
    (("classify", "{index.txt}"), f"error: {{index.txt}}: line 2: {_TOO_LONG} (position 1)\n"),
    (("classify", "{exponent.txt}"), f"error: {{exponent.txt}}: line 2: {_TOO_LONG} (position 3)\n"),
], ids=["word-eval index", "word-eval exponent", "is-trivial exponent", "word-eval inferred rank",
        "presentation index", "presentation exponent"])
def test_integer_past_the_digit_limit_exit_2(capsys, tmp_path, argv, err):
    (tmp_path / "index.txt").write_text(f"2 2\na{_LONG}\n")
    (tmp_path / "exponent.txt").write_text(f"2 2\na1^{_LONG}\n")
    code, out, got = _run(capsys, *_with_system_files(tmp_path, argv))
    assert code == 2 and out == ""
    assert got == err.replace("{index.txt}", str(tmp_path / "index.txt")).replace(
        "{exponent.txt}", str(tmp_path / "exponent.txt"))


def test_word_argument_from_stdin_or_file(capsys, monkeypatch, pres, tmp_path):
    # '-' reads the word from stdin and @path from a file; the "word" field
    # echoes the argument as given
    path = tmp_path / "word.txt"
    path.write_text("[a1,a2]^2\n")
    code, out, _ = _run(capsys, "is-trivial", pres, "[a1,a2]^2")
    direct = json.loads(out)
    assert code == 0 and direct["trivial_in_G"] is True
    code, out, _ = _run(capsys, "is-trivial", pres, f"@{path}")
    assert code == 0 and json.loads(out) == dict(direct, word=f"@{path}")
    monkeypatch.setattr(sys, "stdin", io.StringIO("[a1,a2]^2"))
    code, out, _ = _run(capsys, "is-trivial", pres, "-")
    assert code == 0 and json.loads(out) == dict(direct, word="-")
    # word-eval infers the rank from the text it read
    path.write_text("a3 a1\n")
    code, out, _ = _run(capsys, "word-eval", f"@{path}")
    assert code == 0 and json.loads(out)["alpha"] == [1, 0, 1]
    code, _, err = _run(capsys, "word-eval", f"@{tmp_path / 'missing.txt'}")
    assert code == 2 and err.startswith("error: cannot read")


def test_word_over_the_argv_limit_reaches_the_console(tmp_path):
    # one argv string is capped at 128 KiB on Linux; 60,000 tokens (360 KB)
    # reach word-eval through stdin and through a file
    text = " ".join(("a1", "a2")[i % 2] for i in range(60_000))
    path = tmp_path / "long.txt"
    path.write_text(text)
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(nilq.__file__)))
    outs = [subprocess.run([sys.executable, "-m", "nilq.cli", "word-eval", "--m", "2", arg],
                           env=env, input=stdin, capture_output=True, text=True)
            for arg, stdin in (("-", text), (f"@{path}", None))]
    for proc in outs:
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["alpha"] == [30_000, 30_000] and data["gamma"] == [-(30_000 * 29_999 // 2)]


def test_rank_exp_length_over_limit_exit_1(capsys, tmp_path):
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps(
        {"m": 2, "r": 1, "lengths": [4, MAX_WORD_LETTERS + 1], "trials": 1, "seed": 1}))
    code, out, _ = _run(capsys, "rank-exp", str(cfg))
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "RankLimitError"
    assert f"over the limit of {MAX_WORD_LETTERS}" in data["message"]


def test_escape_nan_epsilon_exit_1(capsys):
    # NaN compared false with every sum: it printed a zero count and exited 0
    code, out, _ = _run(capsys, "escape", "--m", "2", "--n", "1", "--trials", "1",
                        "--seed", "1", "--epsilon", "nan")
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": "epsilon must not be NaN"}


# m = 0 divided by zero and m = -1 reached numpy's multinomial
@pytest.mark.parametrize("m", ["0", "-1"])
@pytest.mark.parametrize("command", ["clt", "escape"])
def test_walk_rank_below_one_exit_1(capsys, command, m):
    code, out, _ = _run(capsys, command, "--m", m, "--n", "5", "--trials", "3", "--seed", "1")
    assert code == 1
    assert json.loads(out) == {"error": "ValueError", "message": "m must be positive"}


def test_find_all_past_the_solution_cap_exit_1(tmp_path):
    # x = x at m = 2, box 2 has 125^3 solutions; keeping them all raised
    # MemoryError under this address-space cap
    group = tmp_path / "xx.json"
    group.write_text(json.dumps({"variables": ["x", "y", "z"], "constants": ["a", "b"],
                                 "equations": [[[["x", 1]], [["x", 1]]]]}))
    code, out = _run_capped(["solve-bounded", str(group), "--box", "2", "--m", "2"], 4 * 10**8, 60)
    assert code == 1
    assert json.loads(out) == {"error": "SearchSpaceError", "message": "more than 100000 solutions"}


def test_ring_search_stops_at_first_or_past_the_solution_cap(tmp_path):
    # the empty system in x, y holds at all 4471^2 points of box 2235, under
    # the default limit; listing them all takes about 4 GB, so under this
    # address-space cap only a search that stops can answer
    ring = tmp_path / "empty.json"
    ring.write_text(json.dumps({"variables": ["x", "y"], "equations": []}))
    for first, code, expected in (
            (True, 0, {"box": 2235, "kind": "ring", "solutions": [{"x": -2235, "y": -2235}]}),
            (False, 1, {"error": "SearchSpaceError", "message": "more than 100000 solutions"})):
        argv = ["solve-bounded", str(ring), "--box", "2235"] + ["--first"] * first
        status, out = _run_capped(argv, 15 * 10**7, 15)
        assert (status, json.loads(out)) == (code, expected)


def test_wide_gamma_box_is_counted_not_listed(tmp_path):
    # at m = 12 a box-1 gamma block has 3^66 points; listing it ran out of
    # memory, counting it hits the work limit.  The address-space cap keeps a
    # regression from taking the machine's memory with it.
    group = tmp_path / "group.json"
    group.write_text(json.dumps({"variables": ["x", "y"], "constants": ["a", "b"],
                                 "equations": [[[["x", 1], ["y", 1]], [["a", 1]]]]}))
    argv = ["solve-bounded", str(group), "--box", "1", "--m", "12", "--limit", "1000"]
    code, out = _run_capped(argv, 2 * 10**9, 60)
    assert code == 1
    assert json.loads(out) == {"error": "SearchSpaceError", "message": "evaluation limit exceeded"}
