import json

import numpy as np
import pytest

from keybound.cli import OUTPUT_DIR_ENV, build_parser, main, run
from keybound.protocols import four_state_povms, simulate_observed_data
from keybound.states import depolarized_bell


def invoke(argv, capsys):
    code = run(build_parser().parse_args(argv))
    out = capsys.readouterr().out
    return code, out


def test_bound_subcommand(capsys):
    code, out = invoke(["bound", "--protocol", "six-state", "--e", "0.05"], capsys)
    assert code == 0
    lam = float(next(l for l in out.splitlines() if "lambda_max" in l).split(":")[1])
    assert abs(lam - 0.3) < 1e-5
    assert "status: optimal" in out


def test_cutoff_subcommand(capsys):
    code, out = invoke(["cutoff", "--protocol", "six-state"], capsys)
    assert code == 0
    assert float(out.strip()) == pytest.approx(1 / 6, abs=2e-3)


def test_cutoff_bad_tol_exits_2(capsys):
    code = main(["cutoff", "--protocol", "six-state", "--tol", "-1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "tol" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("flag", ["--gap-tol", "--feas-tol", "--max-iter",
                                  "--lambda-tol"])
def test_removed_tuning_flag_exits_2(flag, capsys):
    # The bound pipeline runs at one set of tolerances; argparse refuses
    # the old tuning flags on every subcommand.
    for argv in (["bound", "--protocol", "six-state", "--e", "0.05"],
                 ["sweep", "--protocol", "six-state", "--grid", "0:0.25:2"],
                 ["cutoff", "--protocol", "six-state"],
                 ["check-extendible", "--protocol", "six-state", "--e", "0.05"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1e-6"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"unrecognized arguments: {flag}" in captured.err
        assert captured.out == ""


def test_cutoff_gap_above_tol_exits_1(capsys):
    code = main(["cutoff", "--protocol", "six-state", "--tol", "1e-300"])
    captured = capsys.readouterr()
    assert code == 1
    assert "exceeds tol" in captured.err
    assert captured.out == ""


def test_cutoff_tau_underflow_exits_1(capsys):
    # The threshold program over a bracket ending just below the six-state
    # cutoff 1/6 is infeasible, but its solve breaks down before any
    # certificate; that is a solver failure, not a bad bracket.
    code = main(["cutoff", "--protocol", "six-state", "--bracket", "0:0.1666",
                 "--tol", "1e-4"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("solver failure:")
    assert "tau underflow" in captured.err
    assert captured.out == ""


def test_check_extendible_subcommand(capsys):
    code, out = invoke(["check-extendible", "--protocol", "six-state", "--e", "0.2"], capsys)
    assert code == 0
    assert out.startswith("extendible")
    code, out = invoke(["check-extendible", "--protocol", "six-state", "--e", "0.1"], capsys)
    assert code == 0
    assert out.startswith("not extendible")


def test_sweep_writes_csv(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    code, _ = invoke(["sweep", "--protocol", "six-state",
                      "--grid", "0:0.2:3", "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().strip().split("\n")
    assert lines[0].startswith("e,qber,lambda_max")
    assert len(lines) == 4


def test_sweep_json_format(tmp_path, capsys):
    out_file = tmp_path / "sweep.json"
    code, _ = invoke(["sweep", "--protocol", "six-state", "--grid", "0:0.1:2",
                      "--out", str(out_file), "--format", "json"], capsys)
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["points"]) == 2


def test_sweep_emit_gnuplot(tmp_path, capsys):
    out_file = tmp_path / "s.csv"
    code, _ = invoke(["sweep", "--protocol", "six-state", "--grid", "0:0.1:2",
                      "--out", str(out_file), "--emit-gnuplot"], capsys)
    assert code == 0
    gp = (tmp_path / "s.csv.gp").read_text()
    assert "s.csv" in gp


def test_output_dir_env_resolves_relative_paths(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(tmp_path))
    code, _ = invoke(["sweep", "--protocol", "six-state", "--grid", "0:0.1:2",
                      "--out", "rel.csv"], capsys)
    assert code == 0
    assert (tmp_path / "rel.csv").exists()


def test_sweep_deterministic_bytes(tmp_path, capsys):
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for f in (f1, f2):
        code, _ = invoke(["sweep", "--protocol", "four-state",
                          "--grid", "0:0.12:3", "--out", str(f)], capsys)
        assert code == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_custom_protocol_file(tmp_path, capsys):
    alice, bob = four_state_povms()
    data = simulate_observed_data(depolarized_bell(0.05), (alice, bob))

    def povm_json(p):
        return [{"label": l, "basis": ba, "bit": bi,
                 "matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}
                for l, ba, bi, m in zip(p.labels, p.bases, p.bits, p.elements)]

    doc = {"dims": [2, 2], "alice_povm": povm_json(alice), "bob_povm": povm_json(bob),
           "probabilities": [{"alice": la, "bob": lb, "p": p}
                             for (la, lb), p in data.entries().items()]}
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(["bound", "--protocol", "custom", "--custom-file", str(path)], capsys)
    assert code == 0
    assert "status: optimal" in out
    lam = float(next(l for l in out.splitlines() if "lambda_max" in l).split(":")[1])
    assert lam == pytest.approx(0.05 / (0.5 * (1 - 1 / np.sqrt(2))), abs=1e-5)


def test_custom_protocol_with_nan_probability_exits_2(tmp_path, capsys):
    alice, bob = four_state_povms()
    data = simulate_observed_data(depolarized_bell(0.05), (alice, bob))

    def povm_json(p):
        return [{"label": l, "basis": ba, "bit": bi,
                 "matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}
                for l, ba, bi, m in zip(p.labels, p.bases, p.bits, p.elements)]

    records = [{"alice": la, "bob": lb, "p": p}
               for (la, lb), p in data.entries().items()]
    records[0]["p"] = float("nan")
    path = tmp_path / "proto.json"
    path.write_text(json.dumps({"dims": [2, 2], "alice_povm": povm_json(alice),
                                "bob_povm": povm_json(bob), "probabilities": records}))
    code = main(["bound", "--protocol", "custom", "--custom-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert "probs has a non-finite entry" in captured.err


def _custom_doc():
    alice, bob = four_state_povms()
    data = simulate_observed_data(depolarized_bell(0.05), (alice, bob))

    def povm_json(p):
        return [{"label": l, "basis": ba, "bit": bi,
                 "matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}
                for l, ba, bi, m in zip(p.labels, p.bases, p.bits, p.elements)]

    return {"dims": [2, 2], "alice_povm": povm_json(alice), "bob_povm": povm_json(bob),
            "probabilities": [{"alice": la, "bob": lb, "p": p}
                              for (la, lb), p in data.entries().items()]}


@pytest.mark.parametrize("corrupt, field", [
    (lambda doc: doc["probabilities"][3].update(p=None), "probability record 3: 'p'"),
    (lambda doc: doc["probabilities"].__setitem__(3, ["X0", "Z1", 0.1]),
     "probability record 3"),
    (lambda doc: doc["bob_povm"][2].update(bit=None), "bob_povm element 2: 'bit'"),
    (lambda doc: doc.update(dims=[2, None]), "dims"),
    (lambda doc: doc["alice_povm"].__setitem__(0, 5), "alice_povm element 0"),
    (lambda doc: doc.update(bob_povm=None), "bob_povm"),
    (lambda doc: doc.update(probabilities=None), "probabilities"),
], ids=["null-p", "record-not-object", "null-bit", "null-dim", "element-not-object",
        "null-povm", "null-probabilities"])
def test_malformed_custom_protocol_exits_2(tmp_path, capsys, corrupt, field):
    doc = _custom_doc()
    corrupt(doc)
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    code = main(["bound", "--protocol", "custom", "--custom-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert field in captured.err
    assert captured.out == ""


def test_custom_without_file_errors():
    with pytest.raises(ValueError):
        run(build_parser().parse_args(["bound", "--protocol", "custom"]))


def test_grid_syntax_errors():
    with pytest.raises(ValueError):
        run(build_parser().parse_args(
            ["sweep", "--protocol", "six-state", "--grid", "oops"]))


def test_emit_gnuplot_requires_csv_out(tmp_path):
    with pytest.raises(ValueError):
        run(build_parser().parse_args(
            ["sweep", "--protocol", "six-state", "--grid", "0:0.1:2",
             "--out", str(tmp_path / "x.json"), "--format", "json",
             "--emit-gnuplot"]))


def test_unknown_protocol_rejected(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bound", "--protocol", "five-state"])


def test_source_constraint_flags(capsys):
    code_on, out_on = invoke(["bound", "--protocol", "four-state", "--e", "0.08",
                              "--source-constraint"], capsys)
    code_off, out_off = invoke(["bound", "--protocol", "four-state", "--e", "0.08",
                                "--no-source-constraint"], capsys)
    assert code_on == 0 and code_off == 0
    lam_on = float(next(l for l in out_on.splitlines() if "lambda_max" in l).split(":")[1])
    lam_off = float(next(l for l in out_off.splitlines() if "lambda_max" in l).split(":")[1])
    assert lam_on == pytest.approx(lam_off, abs=1e-6)


def test_reverse_direction_flag(capsys):
    code, out = invoke(["bound", "--protocol", "six-state", "--e", "0.05",
                        "--direction", "reverse"], capsys)
    assert code == 0
    assert "direction: reverse" in out
    lam = float(next(l for l in out.splitlines() if "lambda_max" in l).split(":")[1])
    assert abs(lam - 0.3) < 1e-5
