import json

import numpy as np
import pytest

from keybound import bounds, extendibility
from keybound.cli import OUTPUT_DIR_ENV, _point_lines, build_parser, main, run
from keybound.protocols import (ProtocolSpec, four_state_povms, load_protocol,
                                simulate_observed_data)
from keybound.states import depolarized_bell
from helpers import no_state_six_state_data


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


def test_cutoff_bracket_just_below_cutoff_exits_2(capsys):
    # A bracket ending just below the six-state cutoff 1/6: the witness of
    # the one solve names the upper end as a bad bracket.
    code = main(["cutoff", "--protocol", "six-state", "--bracket", "0:0.1666",
                 "--tol", "1e-4"])
    captured = capsys.readouterr()
    assert code == 2
    assert "upper bracket e=0.1666 is not extendible" in captured.err
    assert captured.out == ""


def test_check_extendible_subcommand(capsys):
    code, out = invoke(["check-extendible", "--protocol", "six-state", "--e", "0.2"], capsys)
    assert code == 0
    assert out.startswith("extendible")
    code, out = invoke(["check-extendible", "--protocol", "six-state", "--e", "0.1"], capsys)
    assert code == 0
    assert out.startswith("not extendible")
    # the verdict stays first; the program and class residual follow lambda_max
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines[1:]] == [
        "lambda_max", "program", "class_residual"]
    assert lines[2] == "program: witness"
    assert float(lines[3].split(":")[1]) <= 1e-8


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


def _custom_doc(povms=None, data=None):
    """The protocol file of povms and data, by default the four-state
    POVMs at e = 0.05."""
    if povms is None:
        povms = four_state_povms()
        data = simulate_observed_data(depolarized_bell(0.05), povms)
    alice, bob = povms

    def povm_json(p):
        return [{"label": l, "basis": ba, "bit": bi,
                 "matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}
                for l, ba, bi, m in zip(p.labels, p.bases, p.bits, p.elements)]

    return {"dims": [2, 2], "alice_povm": povm_json(alice), "bob_povm": povm_json(bob),
            "probabilities": [{"alice": la, "bob": lb, "p": p}
                              for (la, lb), p in data.entries().items()]}


def _rename_bob_bases(doc):
    for element in doc["bob_povm"]:
        element["basis"] = {"X": "U", "Z": "V"}[element["basis"]]


def _rename_key(elements, old, new):
    """Rename key old to new in each element, as a misspelt key would be."""
    def corrupt(doc):
        for element in elements(doc):
            element[new] = element.pop(old)
    return corrupt


def _drop_bits(doc):
    for element in doc["bob_povm"]:
        del element["bit"]


@pytest.mark.parametrize("corrupt, field", [
    (lambda doc: doc["probabilities"][3].update(p=None), "probability record 3: 'p'"),
    (lambda doc: doc["probabilities"].__setitem__(3, ["X0", "Z1", 0.1]),
     "probability record 3"),
    (lambda doc: doc["bob_povm"][2].update(bit=None), "bob_povm element 2: 'bit'"),
    (lambda doc: doc.update(dims=[2, None]), "dims"),
    (lambda doc: doc.update(dims=[2.7, 2]), "dims"),
    (lambda doc: doc.update(dims=["2", 2]), "dims"),
    # a non-finite matrix entry is named by its JSON field, not by the
    # internal array it feeds
    (lambda doc: doc.update(source_constraint=True,
                            alice_marginal={"re": [[0.5, 0.0], [0.0, float("nan")]]}),
     "alice_marginal: 're' has a non-finite entry"),
    (lambda doc: doc["bob_povm"][2]["matrix"]["im"][0].__setitem__(1, float("inf")),
     "bob_povm element 2: 'im' has a non-finite entry"),
    (lambda doc: doc["alice_povm"].__setitem__(0, 5), "alice_povm element 0"),
    (lambda doc: doc.update(bob_povm=None), "bob_povm"),
    (lambda doc: doc.update(probabilities=None), "probabilities"),
    (_rename_bob_bases, "no matched-basis probability mass"),
    # a misspelt or missing optional key used to read as absent: no key
    # metadata, the default source constraint, a real matrix
    (_rename_key(lambda doc: doc["alice_povm"], "bit", "bits"),
     "alice_povm element 0: unknown key 'bits'"),
    (_drop_bits, "bob_povm element 0: give both 'basis' and 'bit' or neither"),
    (lambda doc: doc.update(source_constrant=True),
     "protocol file: unknown key 'source_constrant'"),
    (_rename_key(lambda doc: [doc["bob_povm"][1]["matrix"]], "im", "imag"),
     "bob_povm element 1: unknown key 'imag'"),
    (lambda doc: doc.update(alice_marginal={"re": [[0.5, 0.0], [0.0, 0.5]],
                                            "imag": [[0.0, 0.0], [0.0, 0.0]]}),
     "alice_marginal: unknown key 'imag'"),
    (lambda doc: doc["probabilities"][2].update(q=0.1),
     "probability record 2: unknown key 'q'"),
    (lambda doc: doc["probabilities"][0].pop("alice"),
     "probability record 0: missing key 'alice'"),
    (lambda doc: doc["probabilities"][1].pop("bob"),
     "probability record 1: missing key 'bob'"),
    (lambda doc: doc["probabilities"][0].update(alice=[0]),
     "probability record 0: unknown label [0]"),
    (lambda doc: doc.update(alice_marginal={"re": (np.eye(3) / 3).tolist()}),
     "alice_marginal does not match dims"),
    # the rows read Tr(marginal S_k).real alone, which would take a
    # non-Hermitian marginal for its Hermitian part
    (lambda doc: doc.update(source_constraint=True, alice_marginal={
        "re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0, 0.2], [0.2, 0.0]]}),
     "alice_marginal is not a density matrix: density matrix is not Hermitian"),
    (lambda doc: doc.update(source_constraint=True, alice_marginal={"re": [[1.2, 0.0],
                                                                           [0.0, -0.2]]}),
     "alice_marginal is not a density matrix: smallest eigenvalue -0.2"),
    # checked also where the source constraint does not read it
    (lambda doc: doc.update(source_constraint=False, alice_marginal={"re": [[1.0, 0.0],
                                                                            [0.0, 1.0]]}),
     "alice_marginal is not a density matrix: trace is 2.0"),
    (lambda doc: doc["probabilities"][0].update(bob={"label": "Z0"}),
     "probability record 0: unknown label {'label': 'Z0'}"),
    # Povm keeps str(label), which only a string or an integer round-trips
    (lambda doc: doc["alice_povm"][1].update(label=1.5),
     "alice_povm element 1: 'label' must be a string or an integer, got 1.5"),
    (lambda doc: doc["bob_povm"][0].update(label=True),
     "bob_povm element 0: 'label' must be a string or an integer, got True"),
], ids=["null-p", "record-not-object", "null-bit", "null-dim", "fractional-dim",
        "string-dim", "nan-marginal", "inf-povm-entry", "element-not-object",
        "null-povm", "null-probabilities", "no-shared-basis", "misspelt-bit",
        "basis-without-bit", "misspelt-top-level-key", "misspelt-im",
        "misspelt-marginal-im", "wrong-shape-marginal", "non-hermitian-marginal",
        "negative-marginal", "unread-trace-2-marginal", "extra-record-key",
        "record-without-alice", "record-without-bob", "list-label", "object-label",
        "float-element-label", "boolean-element-label"])
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


def test_custom_protocol_file_with_alice_marginal(tmp_path, capsys):
    # the data leave the Y component of Alice's marginal open; the file's
    # marginal I/2 + 0.1 Y pins it, and the file gives the library's bound
    marginal = np.array([[0.5, -0.1j], [0.1j, 0.5]])
    doc = _custom_doc()
    doc.update(source_constraint=True,
               alice_marginal={"re": marginal.real.tolist(), "im": marginal.imag.tolist()})
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(["bound", "--protocol", "custom", "--custom-file", str(path)], capsys)
    assert code == 0
    alice, bob = four_state_povms()
    spec = ProtocolSpec("custom", povms=(alice, bob), source_constraint=True,
                        data=simulate_observed_data(depolarized_bell(0.05), (alice, bob)),
                        alice_marginal=marginal)
    point = bounds.one_way_upper_bound(spec)
    assert point.status == "optimal"
    assert out.splitlines() == _point_lines(point)
    # the pinned marginal tightens the class, so the bound moves off I/2's
    doc["alice_marginal"] = {"re": [[0.5, 0.0], [0.0, 0.5]]}
    path.write_text(json.dumps(doc))
    assert invoke(["bound", "--protocol", "custom", "--custom-file", str(path)],
                  capsys)[1] != out


@pytest.mark.parametrize("label, record_label", [(7, 7), ("7", 7), (7, "7")],
                         ids=["integer-both", "integer-record", "integer-element"])
def test_custom_protocol_matches_integer_labels_as_strings(tmp_path, capsys, label,
                                                           record_label):
    # Povm stores str(label), so records naming an element by the JSON
    # integer 7 or the string "7" both find it.
    doc = _custom_doc()
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    argv = ["bound", "--protocol", "custom", "--custom-file", str(path)]
    code, expected = invoke(argv, capsys)
    assert code == 0
    old = doc["alice_povm"][0]["label"]
    doc["alice_povm"][0]["label"] = label
    for rec in doc["probabilities"]:
        if rec["alice"] == old:
            rec["alice"] = record_label
    path.write_text(json.dumps(doc))
    assert invoke(argv, capsys) == (0, expected)


@pytest.mark.parametrize("bit, field", [
    (1.5, "bob_povm element 1: 'bit'"),
    (True, "bob_povm element 1: 'bit'"),
    ("1", "bob_povm element 1: 'bit'"),
    (-1, "bits must be non-negative integers"),
], ids=["fractional", "boolean", "string", "negative"])
def test_custom_protocol_bit_must_be_a_non_negative_json_integer(tmp_path, capsys, bit,
                                                                 field):
    doc = _custom_doc()
    doc["bob_povm"][1]["bit"] = bit
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    code = main(["bound", "--protocol", "custom", "--custom-file", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert field in captured.err
    assert captured.out == ""


def test_custom_protocol_source_constraint_must_be_json_boolean(tmp_path, capsys):
    doc = _custom_doc()
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    assert load_protocol(path).source_constraint is None
    for value in (True, False):
        doc["source_constraint"] = value
        path.write_text(json.dumps(doc))
        assert load_protocol(path).source_constraint is value
    for value in ("false", "no", 0, None):
        doc["source_constraint"] = value
        path.write_text(json.dumps(doc))
        code = main(["bound", "--protocol", "custom", "--custom-file", str(path)])
        captured = capsys.readouterr()
        assert code == 2, value
        assert "source_constraint must be true or false" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("extra", [["--format", "json", "--out", "s.json"], []],
                         ids=["json-out", "no-out"])
def test_emit_gnuplot_flag_error_solves_and_writes_nothing(tmp_path, capsys,
                                                          monkeypatch, extra):
    calls = []
    real = bounds.one_way_upper_bound

    def spy(spec):
        calls.append(spec)
        return real(spec)

    monkeypatch.setattr(bounds, "one_way_upper_bound", spy)
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    code = main(["sweep", "--protocol", "six-state", "--grid", "0:0.2:3",
                 "--emit-gnuplot"] + extra)
    captured = capsys.readouterr()
    assert code == 2
    assert "--emit-gnuplot needs" in captured.err
    assert captured.out == ""
    assert calls == []
    assert list(tmp_path.iterdir()) == []


def test_custom_without_file_errors():
    with pytest.raises(ValueError):
        run(build_parser().parse_args(["bound", "--protocol", "custom"]))


@pytest.mark.parametrize("argv", [["sweep", "--grid", "0:0.25:2"], ["cutoff"]],
                         ids=["sweep", "cutoff"])
def test_family_subcommands_refuse_custom_protocol(argv, tmp_path, capsys):
    # sweep and cutoff run the built-in family over e; argparse refuses a
    # custom protocol and its file before any solve
    for extra in (["--protocol", "custom"],
                  ["--protocol", "six-state", "--custom-file", str(tmp_path / "p.json")]):
        with pytest.raises(SystemExit) as exc:
            main(argv + extra)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", ["bound", "check-extendible"])
def test_custom_protocol_refuses_e(command, tmp_path, capsys):
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(_custom_doc()))
    code = main([command, "--protocol", "custom", "--custom-file", str(path),
                 "--e", "0.05"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--e does not apply to --protocol custom" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("lowest", [-5e-9, -1e-8, -7.5e-8, -2e-7, -1e-6])
@pytest.mark.parametrize("command", ["bound", "check-extendible"])
def test_data_pinning_no_state_exit_2_before_any_solve(command, lowest, tmp_path, capsys,
                                                       monkeypatch):
    # six-state data of an operator with smallest eigenvalue lowest: no
    # state meets them, so they are refused as inconsistent data, before
    # any solve
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(_custom_doc(*no_state_six_state_data(lowest))))
    problems = []
    monkeypatch.setattr(extendibility, "solve", problems.append)
    code = main([command, "--protocol", "custom", "--custom-file", str(path)])
    assert code == 2
    assert problems == []
    assert "pin an operator" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bound", "check-extendible"])
def test_builtin_protocol_refuses_custom_file(command, tmp_path, capsys):
    # a built-in kind would ignore the file, so the pair is refused
    # before any solve, whether or not the file exists
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(_custom_doc()))
    for custom_file in (str(path), str(tmp_path / "missing.json")):
        code = main([command, "--protocol", "six-state", "--e", "0.05",
                     "--custom-file", custom_file])
        captured = capsys.readouterr()
        assert code == 2
        assert "--custom-file applies only to --protocol custom" in captured.err
        assert captured.out == ""


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--protocol", "six-state", "--grid", "0:0.25:0"],
     "grid count must be at least 1"),
    (["cutoff", "--protocol", "six-state", "--bracket", "0.1"], "bracket must be lo:hi"),
    (["cutoff", "--protocol", "six-state", "--bracket", "0.2:0.1"],
     "bracket must be an increasing pair"),
    (["bound", "--protocol", "four-state"], "--protocol four-state needs --e"),
], ids=["empty-grid", "one-sided-bracket", "decreasing-bracket", "bound-without-e"])
def test_invalid_arguments_exit_2(argv, message, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert message in captured.err
    assert captured.out == ""


def test_out_naming_a_directory_exits_2_and_leaves_no_temporary(tmp_path, capsys):
    target = tmp_path / "out"
    target.mkdir()
    code = main(["sweep", "--protocol", "six-state", "--grid", "0.05:0.05:1",
                 "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 2
    assert str(target) in captured.err
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []


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


def test_bound_out_writes_the_seven_column_csv(tmp_path, capsys):
    out_file = tmp_path / "p.csv"
    code, out = invoke(["bound", "--protocol", "six-state", "--e", "0.05",
                        "--out", str(out_file)], capsys)
    assert code == 0
    assert out.splitlines()[-1] == f"wrote {out_file}"
    header, row = out_file.read_text().splitlines()
    assert header == "e,qber,lambda_max,mutual_info_ne,upper_bound,duality_gap,status"
    fields = dict(zip(header.split(","), row.split(",")))
    assert len(row.split(",")) == 7
    assert fields["e"] == "0.05" and fields["status"] == "optimal"
    assert abs(float(fields["lambda_max"]) - 0.3) < 1e-5


def test_sweep_without_out_prints_the_csv(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    monkeypatch.chdir(tmp_path)
    code, out = invoke(["sweep", "--protocol", "six-state", "--grid", "0:0.2:3"], capsys)
    assert code == 0
    assert out == bounds.bound_points_to_csv(bounds.sweep("six-state", [0.0, 0.1, 0.2]))
    assert list(tmp_path.iterdir()) == []


def test_direction_and_source_flags_override_the_custom_file(tmp_path, capsys,
                                                             monkeypatch):
    seen = []
    real = bounds.one_way_upper_bound

    def spy(spec):
        seen.append(spec)
        return real(spec)

    monkeypatch.setattr("keybound.cli.one_way_upper_bound", spy)
    doc = _custom_doc()
    doc.update(direction="reverse", source_constraint=True)
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    code, out = invoke(["bound", "--protocol", "custom", "--custom-file", str(path)], capsys)
    assert code == 0 and "direction: reverse" in out
    code, out = invoke(["bound", "--protocol", "custom", "--custom-file", str(path),
                        "--direction", "direct", "--no-source-constraint"], capsys)
    assert code == 0 and "direction: direct" in out
    assert [(spec.direction, spec.source_constraint) for spec in seen] == [
        ("reverse", True), ("direct", False)]


@pytest.mark.parametrize("argv", [
    ["bound", "--protocol", "six-state", "--e", "0.05"],
    ["sweep", "--protocol", "six-state", "--grid", "0:0.1:2"],
], ids=["bound", "sweep"])
def test_out_into_missing_directory_exits_2_and_leaves_nothing(argv, tmp_path, capsys,
                                                               monkeypatch):
    monkeypatch.delenv(OUTPUT_DIR_ENV, raising=False)
    missing = tmp_path / "missing"
    code = main(argv + ["--out", str(missing / "p.csv")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ")
    assert "wrote" not in captured.out
    assert not missing.exists()
    assert list(tmp_path.iterdir()) == []
