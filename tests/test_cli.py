import hashlib
import json
import sys

import pytest

import hivekit.lattice
from hivekit import (EnumerationBudget, Hive, ValuedMatrix, cli,
                     lattice_invariants, oracle)
from hivekit.cli import InstanceSpec, build_parser, main, random_pair
from hivekit.ring import RingConfig

PAPER = {"n": 4, "rows": [[0], [21, 27], [34, 44, 48], [40, 54, 64, 67],
                          [41, 58, 72, 81, 83]]}


def write(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def matrix_json(rows):
    return {"rows": len(rows), "cols": len(rows[0]),
            "data": [[str(v) for v in row] for row in rows]}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_compute_and_verify_round_trip(tmp_path, capsys):
    n_file = write(tmp_path / "n.json", matrix_json([[2, 0], [0, 1]]))
    l_file = write(tmp_path / "l.json", matrix_json([[4, 0], [0, 1]]))
    out_file = tmp_path / "hive.json"
    code = main(["compute", "--ring", "padic:2", "--n-matrix", n_file,
                 "--lambda-matrix", l_file, "--out", str(out_file)])
    assert code == 0
    payload = json.loads(out_file.read_text())
    assert payload["rows"] == [[0], [1, 2], [1, 2, 2]]
    assert payload["type"] == {"mu": [1, 0], "nu": [1, 0], "lambda": [2, 0]}

    code, out = run(capsys, "verify", str(out_file), "--lr")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and report["lr"]["ok"]


def test_compute_variant_both(tmp_path, capsys):
    n_file = write(tmp_path / "n.json", matrix_json([[2, 0], [2, 1]]))
    l_file = write(tmp_path / "l.json", matrix_json([[2, 0], [2, 2]]))
    code, out = run(capsys, "compute", "--n-matrix", n_file,
                    "--lambda-matrix", l_file, "--variant", "both")
    assert code == 0
    payload = json.loads(out)
    assert payload["primary"]["type"]["mu"] == [1, 0]
    assert payload["swapped"]["type"]["mu"] == [1, 0]
    assert payload["primary"]["type"]["lambda"] == [1, 1]


def test_compute_identity(tmp_path, capsys):
    f = write(tmp_path / "i.json", matrix_json([[1, 0], [0, 1]]))
    code, out = run(capsys, "compute", "--n-matrix", f, "--lambda-matrix", f)
    assert code == 0
    assert json.loads(out)["rows"] == [[0], [0, 0], [0, 0, 0]]


def test_compute_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    good = write(tmp_path / "g.json", matrix_json([[1, 0], [0, 1]]))
    code, _ = run(capsys, "compute", "--n-matrix", str(bad),
                  "--lambda-matrix", good)
    assert code == 1
    code, _ = run(capsys, "compute", "--n-matrix", good,
                  "--lambda-matrix", write(tmp_path / "r.json",
                                           matrix_json([[1, 2], [2, 4]])))
    assert code == 1  # singular lambda matrix


@pytest.mark.parametrize("variant", ["primary", "both"])
def test_compute_non_hive_exits_2(tmp_path, capsys, monkeypatch, variant):
    # a built array that breaks a rhombus inequality is an internal
    # consistency failure, like a duality mismatch: exit 2 with an error
    # line, not a traceback
    rows = [list(r) for r in PAPER["rows"]]
    rows[2][1] = 30
    monkeypatch.setattr(cli, "build_hive", lambda *args: Hive(rows))
    f = write(tmp_path / "i.json", matrix_json([[1, 0], [0, 1]]))
    code = main(["compute", "--n-matrix", f, "--lambda-matrix", f,
                 "--variant", variant])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and "rhombus" in captured.err
    assert "Traceback" not in captured.err


def test_verify_paper_hive(tmp_path, capsys):
    hive_file = write(tmp_path / "paper.json", PAPER)
    code, out = run(capsys, "verify", hive_file)
    assert code == 0
    report = json.loads(out)
    assert report["type"] == {"mu": [21, 13, 6, 1], "nu": [17, 14, 9, 2],
                              "lambda": [27, 21, 19, 16]}


def test_verify_mutated_hive(tmp_path, capsys):
    mutated = {"n": 4, "rows": [[0], [21, 27], [34, 30, 48],
                                [40, 54, 64, 67], [41, 58, 72, 81, 83]]}
    hive_file = write(tmp_path / "bad.json", mutated)
    code, out = run(capsys, "verify", hive_file)
    assert code == 3
    report = json.loads(out)
    assert not report["ok"]
    assert any(v["family"] == "right" and v["i"] == 1 and v["j"] == 2
               for v in report["violations"])


def test_verify_parse_error(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text("[[", encoding="utf-8")
    code, _ = run(capsys, "verify", str(bad))
    assert code == 1


@pytest.mark.parametrize("command", ["verify", "render"])
@pytest.mark.parametrize("entry", [1.5, True, "1"])
def test_non_integer_hive_entry_exits_1(tmp_path, capsys, command, entry):
    # int() would read 1.5 as 1 and true as 1, and report a hive that
    # was never given
    hive_file = write(tmp_path / "h.json", {"rows": [[0], [entry, 2]]})
    code = main([command, hive_file])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_render_ascii_and_json(tmp_path, capsys):
    hive_file = write(tmp_path / "paper.json", PAPER)
    code, out = run(capsys, "render", hive_file, "--format", "ascii")
    assert code == 0
    assert out.rstrip("\n").split("\n")[-1] == "41 58 72 81 83"
    code, out = run(capsys, "render", hive_file, "--format", "json")
    assert Hive.from_json(json.loads(out)) == Hive(PAPER["rows"])


@pytest.mark.parametrize("ring,rows,invariants", [
    ("padic:2", [[2, 0], [0, 1]], [1, 0]),
    ("tadic", [["t^2", "1+t"], ["t", "(1)/(t)"]], [3, -1])],
    ids=["padic", "tadic"])
def test_smith_command(tmp_path, capsys, ring, rows, invariants):
    m_file = write(tmp_path / "m.json", matrix_json(rows))
    code, out = run(capsys, "smith", m_file, "--ring", ring)
    assert code == 0
    payload = json.loads(out)
    assert payload["invariants"] == invariants
    cfg = RingConfig.parse_flag(ring)
    p = ValuedMatrix.from_json(cfg, payload["P"])
    d = ValuedMatrix.from_json(cfg, payload["D"])
    q = ValuedMatrix.from_json(cfg, payload["Q"])
    assert (p @ d) @ q == ValuedMatrix.from_json(cfg, matrix_json(rows))


@pytest.mark.parametrize("ring,scalar", [("padic:2", "1/0"),
                                          ("tadic", "(t)/(t-t)")],
                         ids=["padic", "tadic"])
def test_zero_denominator_exits_1(tmp_path, capsys, ring, scalar):
    bad = write(tmp_path / "z.json", matrix_json([[scalar, 0], [0, 1]]))
    good = write(tmp_path / "i.json", matrix_json([[1, 0], [0, 1]]))
    for argv in (["compute", "--n-matrix", bad, "--lambda-matrix", good],
                 ["compute", "--n-matrix", good, "--lambda-matrix", bad],
                 ["smith", bad]):
        code = main([*argv, "--ring", ring])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err.startswith("error: ")


def test_random_deterministic(capsys):
    code, first = run(capsys, "random", "--n", "4", "--seed", "7",
                      "--max-exp", "3")
    assert code == 0
    code, second = run(capsys, "random", "--n", "4", "--seed", "7",
                       "--max-exp", "3")
    assert first == second
    payload = json.loads(first)
    cfg = RingConfig.padic(2)
    n_mat = ValuedMatrix.from_json(cfg, payload["n_matrix"])
    assert sorted(payload["invariants"]["nu"], reverse=True) == \
        payload["invariants"]["nu"]
    assert n_mat.rows == 4


def test_random_pair_properties(p2):
    # mix_steps=0 keeps the diagonal exactly; invariants match the sampled
    # exponents through unimodular invariance
    spec = InstanceSpec(n=3, ring=p2, exponent_range=(2, 2), seed=5,
                        unimodular_mix_steps=0)
    n_lat, lam_lat = random_pair(spec)
    assert lattice_invariants(n_lat) == (2, 2, 2)
    assert lattice_invariants(lam_lat) == (4, 4, 4)
    spec = InstanceSpec(n=3, ring=p2, exponent_range=(0, 3), seed=11,
                        unimodular_mix_steps=6)
    a1 = random_pair(spec)
    a2 = random_pair(spec)
    assert a1[0].gens == a2[0].gens and a1[1].gens == a2[1].gens


# sha256 over the generator JSON of both lattices of every pair of the grid
# in test_random_pair_pinned, recorded when random_pair still built its
# factors with RingElement arithmetic: the raw-value route must draw the
# same numbers in the same order and give the same matrices
RANDOM_PAIR_PIN = \
    "002515610aeb7b5f5d2d3a09ed4eb6cdf8e08a31780953c60c62e5b9f3d54d58"


def test_random_pair_pinned():
    # both ring kinds and two primes, n = 1..4, a nonnegative, a negative
    # and a one-point exponent range, and no, few and many mix steps
    digest = hashlib.sha256()
    seed = 0
    for ring in (RingConfig.padic(2), RingConfig.padic(3), RingConfig.tadic()):
        for n in range(1, 5):
            for lo, hi in ((0, 3), (-2, 3), (2, 2)):
                for mix in (0, 4, 6):
                    seed += 1
                    pair = random_pair(InstanceSpec(
                        n=n, ring=ring, exponent_range=(lo, hi), seed=seed,
                        unimodular_mix_steps=mix))
                    digest.update(json.dumps(
                        [lat.gens.to_json() for lat in pair]).encode())
    assert digest.hexdigest() == RANDOM_PAIR_PIN


def test_parser_is_built_once_and_shares_no_arguments(tmp_path, capsys):
    # main reuses one parser, and no argument of one call reaches the next:
    # an --out, or a --ring, given once falls back to its default after
    assert build_parser() is build_parser()
    out_file = tmp_path / "report.json"
    oracle = ["oracle", "--n", "1", "--trials", "1"]
    assert main([*oracle, "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == ""
    code, out = run(capsys, *oracle)
    assert code == 0 and json.loads(out) == json.loads(out_file.read_text())
    code, out = run(capsys, "random", "--ring", "tadic", "--n", "1")
    assert code == 0 and json.loads(out)["ring"] == {"kind": "tadic-ratfunc"}
    code, out = run(capsys, "random", "--n", "1")
    assert code == 0
    assert json.loads(out)["ring"] == RingConfig.padic(2).to_json()


def test_oracle_command(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    code = main(["oracle", "--seed", "3", "--n", "2", "--max-exp", "1",
                 "--trials", "2", "--mix-steps", "2",
                 "--out", str(out_file)])
    report = json.loads(out_file.read_text())
    assert code == 0
    assert report["all_certified"]
    assert len(report["trials"]) == 2
    for trial in report["trials"]:
        assert trial["status"] == "certified"
        assert trial["lr_valid"]
        # the oracle certifies the primary hive's own entries
        rows = trial["hives"]["primary"]["rows"]
        assert len(trial["entries"]) == sum(len(r) for r in rows)
        for entry in trial["entries"]:
            assert entry["max"] == rows[entry["t"]][entry["s"]]
            assert entry["min"] == sum(trial["lambda"]) - entry["max"]
    # the fixed regression diagnostic is always logged
    assert report["regression"]["min"] == 1
    assert report["regression"]["greedy_c_first"] == 2
    # byte-identical reruns
    out2 = tmp_path / "report2.json"
    main(["oracle", "--seed", "3", "--n", "2", "--max-exp", "1",
          "--trials", "2", "--mix-steps", "2", "--out", str(out2)])
    assert out_file.read_bytes() == out2.read_bytes()
    assert report["ring"] == RingConfig.padic(2).to_json()


def test_oracle_budget_exhausted_exits_3(capsys):
    # a max entry enumerates its first round, M = 1, whose rank-1 and
    # rank-2 families of O^3 hold 28 spans each: over a cap of 10
    code, out = run(capsys, "oracle", "--n", "3", "--trials", "1",
                    "--count-cap", "10")
    report = json.loads(out)
    assert code == 3
    assert report["all_certified"] is False
    (trial,) = report["trials"]
    assert trial["status"] == "budget_exhausted"
    assert trial["budget_error"].startswith("predicted")


def test_certainly_refused_trial_builds_no_family(monkeypatch, capsys):
    # round M_0 of every max entry enumerates, so a family of that round
    # over the cap refuses the trial before any family is built, with the
    # message of the first one the entry loop would meet (entry s = 0,
    # t = 1: rank n - t = 2, then c = 1)
    def refuse(*args):
        raise AssertionError("the trial built a family")

    monkeypatch.setattr(oracle, "_coord_family", refuse)
    monkeypatch.setattr(oracle, "_image_family", refuse)
    code, out = run(capsys, "oracle", "--n", "3", "--trials", "1",
                    "--count-cap", "10")
    assert code == 3
    (trial,) = json.loads(out)["trials"]
    assert trial["status"] == "budget_exhausted"
    assert trial["budget_error"] == ("predicted 28 spans (rank 2 in O^3, "
                                     "entries below 2^2) exceed cap 10")


def test_random_at_a_61_bit_prime(capsys):
    # 2^61 - 1 is prime: the primality test is Miller-Rabin, not trial
    # division, so the ring is made at once
    code, out = run(capsys, "random", "--ring", "padic:2305843009213693951",
                    "--n", "2")
    assert code == 0
    assert json.loads(out)["ring"] == {"kind": "padic-rational",
                                       "p": 2 ** 61 - 1}
    # above the bound where the test is exact, p is refused as input
    code = main(["random", "--ring", f"padic:{2 ** 89 - 1}", "--n", "2"])
    captured = capsys.readouterr()
    assert code == 1 and captured.err.startswith("error: p must be below")


def test_oracle_rejects_tadic(capsys):
    code, _ = run(capsys, "oracle", "--ring", "tadic", "--trials", "1")
    assert code == 1


@pytest.mark.parametrize("command", [
    ["compute", "--n-matrix", "n.json", "--lambda-matrix", "l.json"],
    ["random"], ["smith", "m.json"], ["oracle", "--trials", "1"]])
def test_malformed_ring_flag_exits_1(capsys, command):
    # a flag without the colon must not fall back to p=2
    code = main([*command, "--ring", "padic3"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert "padic3" in captured.err


@pytest.mark.parametrize("flags", [
    ["--n", "0"], ["--max-exp", "-1"], ["--mix-steps", "-1"],
    ["--count-cap", "0"], ["--trials", "0"]])
def test_oracle_bad_input_exits_1(capsys, flags):
    # bad input is an error line and exit 1 before any trial runs, not a
    # traceback, and zero trials are not reported as all certified
    code = main(["oracle", "--trials", "1", *flags])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_oracle_count_cap_default_is_the_budget_default():
    # one default count cap, whether the oracle runs from the console or
    # through an EnumerationBudget() in code
    assert (build_parser().parse_args(["oracle"]).count_cap
            == EnumerationBudget().count_cap)


def test_certify_trial_reads_no_greedy_or_smith_route(monkeypatch):
    # with the greedy diagnostic and the Smith route it reads raising, in
    # every hivekit module that holds them, a trial still certifies: its
    # status rests on the brute values, the hive types and the LR checks
    homes = [(hivekit.lattice, name) for name in
             ("greedy_slice_first_min", "adapted_slice", "smith_decompose")]
    for home, name in homes:
        kernel = getattr(home, name)

        def refuse(*args, _name=name, **kwargs):
            raise AssertionError(f"the trial called {_name}")

        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "hivekit":
                for attr, value in list(vars(module).items()):
                    if value is kernel:
                        monkeypatch.setattr(module, attr, refuse)
    # seed 0 of the oracle-p2 shape, where the greedy misses some entries
    spec = InstanceSpec(n=3, ring=RingConfig.padic(2), exponent_range=(0, 2),
                        seed=0, unimodular_mix_steps=4)
    trial = cli._certify_trial(*random_pair(spec), EnumerationBudget())
    assert trial["status"] == "certified"
    assert list(trial) == ["nu", "lambda", "mu", "entries", "hives",
                           "lr_valid", "lr_count", "lr_member", "status"]


@pytest.mark.parametrize("ring", ["padic:2", "tadic"])
def test_random_and_compute_at_n_1(tmp_path, capsys, ring):
    # with the default mix steps n = 1 has no two rows to mix; the pair
    # is then diagonal, and its hive round trip works
    code, out = run(capsys, "random", "--ring", ring, "--n", "1",
                    "--seed", "4", "--max-exp", "2")
    assert code == 0
    payload = json.loads(out)
    n_file = write(tmp_path / "n.json", payload["n_matrix"])
    l_file = write(tmp_path / "l.json", payload["lambda_matrix"])
    code, out = run(capsys, "compute", "--ring", ring, "--variant", "both",
                    "--n-matrix", n_file, "--lambda-matrix", l_file)
    assert code == 0
    hives = json.loads(out)
    inv = payload["invariants"]
    assert hives["primary"]["rows"] == [[0], inv["mu"] + inv["lambda"]]
    assert hives["swapped"]["rows"] == [[0], inv["nu"] + inv["lambda"]]


def test_oracle_at_n_1(capsys):
    # the default mix steps with n = 1: every trial certifies
    code, out = run(capsys, "oracle", "--n", "1", "--trials", "3",
                    "--seed", "2")
    assert code == 0
    report = json.loads(out)
    assert report["all_certified"] and len(report["trials"]) == 3
    assert all(t["status"] == "certified" for t in report["trials"])
