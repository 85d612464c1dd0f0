import io
import json

import numpy as np
import pytest

from keybound.basis import build_basis
from keybound.bounds import one_way_upper_bound
from keybound.infotheory import mutual_information
from keybound.protocols import (
    EquivalenceClassSpec, InconsistentDataError, ObservedData, Povm,
    ProtocolSpec, assemble_class,
    class_from_state, four_state_povms, full_joint, load_protocol,
    matched_key_distribution, povm_coefficients, qber, realize_protocol,
    simulate_observed_data, six_state_povms,
)
from keybound.states import DensityOperator, depolarized_bell
from helpers import trivial_class


def test_povm_completeness():
    for alice, bob in (four_state_povms(), six_state_povms()):
        for p in (alice, bob):
            total = sum(p.elements)
            assert np.allclose(total, np.eye(2), atol=1e-12)


def test_povm_validation():
    e = np.eye(2)
    with pytest.raises(ValueError):
        Povm(elements=(0.5 * e,), labels=("a",))  # does not sum to identity
    with pytest.raises(ValueError):
        Povm(elements=(0.5 * e, 0.5 * e), labels=("a", "a"))  # duplicate label
    bad = np.array([[0.6, 0.5], [0.5, 0.6]])
    with pytest.raises(ValueError):
        Povm(elements=(bad, e - bad), labels=("a", "b"))  # negative eigenvalue


def _build_with(field, bad):
    """A Povm, ObservedData or EquivalenceClassSpec, valid but for one
    entry of field, which is bad."""
    half = 0.5 * np.eye(2)
    parts = {"elements": half.copy(), "probs": np.full((2, 2), 0.25),
             "rows": np.eye(1, 16), "rhs": np.ones(1)}
    parts[field].flat[0] = bad
    if field == "elements":
        return Povm(elements=(parts["elements"], half), labels=("a", "b"))
    if field == "probs":
        return ObservedData(probs=parts["probs"], alice_labels=("a", "b"),
                            bob_labels=("a", "b"))
    return EquivalenceClassSpec(dims=(2, 2), rows=parts["rows"], rhs=parts["rhs"])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["elements", "probs", "rows", "rhs"])
def test_non_finite_inputs_rejected(field, bad):
    with pytest.raises(ValueError, match=rf"^{field} has a non-finite entry"):
        _build_with(field, bad)


@pytest.mark.parametrize("e", [0.0, 0.03, 0.11])
def test_six_state_error_rate_uniform_over_bases(e):
    alice, bob = six_state_povms()
    data = simulate_observed_data(depolarized_bell(e), (alice, bob))
    probs = {}
    for (la, lb), p in data.entries().items():
        probs[la, lb] = p
    for basis in "XYZ":
        matched = sum(probs[f"{basis}{i}", f"{basis}{j}"] for i in range(2) for j in range(2))
        wrong = probs[f"{basis}0", f"{basis}1"] + probs[f"{basis}1", f"{basis}0"]
        assert wrong / matched == pytest.approx(e, abs=1e-12)


@pytest.mark.parametrize("e", [0.0, 0.05, 0.12])
def test_qber_matches_error_parameter(e):
    for povms in (four_state_povms(), six_state_povms()):
        data = simulate_observed_data(depolarized_bell(e), povms)
        assert qber(data, povms) == pytest.approx(e, abs=1e-12)


def test_matched_key_distribution_perfect_at_zero():
    data = simulate_observed_data(depolarized_bell(0.0), six_state_povms())
    dist = matched_key_distribution(data, six_state_povms())
    assert mutual_information(dist) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(dist.probabilities, np.diag([0.5, 0.5]), atol=1e-12)


def test_full_joint_shape():
    data = simulate_observed_data(depolarized_bell(0.1), four_state_povms())
    j = full_joint(data)
    assert j.probabilities.shape == (4, 4)
    assert j.probabilities.sum() == pytest.approx(1.0, abs=1e-12)


def test_povm_coefficients_recover_born_rule():
    rng = np.random.default_rng(1)
    basis = build_basis(2)
    alice, bob = six_state_povms()
    rho = depolarized_bell(0.07)
    ca = povm_coefficients(alice, basis)
    cb = povm_coefficients(bob, basis)
    data = simulate_observed_data(rho, (alice, bob))
    from keybound.basis import expand
    r = expand(rho.matrix, (basis, basis))
    # Born rule in coefficient space: p_ij = sum_kl ca[i,k] cb[j,l] r_kl
    pred = np.einsum("ik,jl,kl->ij", ca, cb, r).real
    assert np.allclose(pred, data.probs, atol=1e-12)


def test_class_row_counts():
    for kind, src, n_rows, n_raw in (
        ("four-state", True, 10, 21),
        ("four-state", False, 9, 17),
        ("six-state", None, 16, 37),
    ):
        spec = (ProtocolSpec.four_state(0.08, source_constraint=src)
                if kind == "four-state" else ProtocolSpec.six_state(0.08))
        povms, data = realize_protocol(spec)
        cls = assemble_class(povms, data, spec)
        assert cls.rows.shape == (n_rows, 16)
        assert cls.n_raw_rows == n_raw
        assert cls.rows.shape[0] == np.linalg.matrix_rank(cls.rows)


@pytest.mark.parametrize("e", [0.0, 0.06, 0.15])
def test_class_residual_vanishes_on_generating_state(e):
    spec = ProtocolSpec.six_state(e)
    povms, data = realize_protocol(spec)
    cls = assemble_class(povms, data, spec)
    assert cls.residual(depolarized_bell(e)) < 1e-12


def test_six_state_class_pins_state_completely():
    # 16 independent rows on a 16-dim coefficient space: unique solution
    spec = ProtocolSpec.six_state(0.09)
    povms, data = realize_protocol(spec)
    cls = assemble_class(povms, data, spec)
    sol, *_ = np.linalg.lstsq(cls.rows, cls.rhs, rcond=None)
    from keybound.basis import expand
    want = expand(depolarized_bell(0.09).matrix, (build_basis(2), build_basis(2))).ravel()
    assert np.allclose(sol, want, atol=1e-10)


def test_inconsistent_data_raises():
    alice, bob = four_state_povms()
    data = simulate_observed_data(depolarized_bell(0.1), (alice, bob))
    bad = data.probs.copy()
    bad[0, 0] += 0.01
    bad[0, 1] -= 0.01  # keeps the total normalized but breaks marginals
    tampered = ObservedData(probs=bad, alice_labels=data.alice_labels,
                            bob_labels=data.bob_labels)
    with pytest.raises(InconsistentDataError):
        assemble_class((alice, bob), tampered,
                       ProtocolSpec.four_state(0.1, source_constraint=True))


def test_class_from_state_and_trivial():
    cls = class_from_state(depolarized_bell(0.05))
    assert cls.rows.shape == (16, 16)
    assert cls.residual(depolarized_bell(0.05)) < 1e-12
    assert cls.residual(depolarized_bell(0.06)) > 1e-4
    triv = trivial_class((2, 2))
    assert triv.rows.shape == (1, 16)
    assert triv.residual(depolarized_bell(0.3)) < 1e-12


def test_reverse_direction_swaps_parties():
    spec = ProtocolSpec.six_state(0.08, direction="reverse")
    povms, data = realize_protocol(spec)
    fwd_povms, fwd_data = realize_protocol(ProtocolSpec.six_state(0.08))
    assert np.allclose(data.probs, fwd_data.probs.T, atol=1e-12)
    assert qber(data, povms) == pytest.approx(0.08, abs=1e-12)
    cls = assemble_class(povms, data, spec)
    # the swapped class still contains the (symmetric) generating state
    assert cls.residual(depolarized_bell(0.08)) < 1e-10
    assert cls.direction == "reverse"


def test_load_protocol_roundtrip(tmp_path):
    alice, bob = four_state_povms()
    data = simulate_observed_data(depolarized_bell(0.08), (alice, bob))

    def povm_json(p):
        return [{"label": l, "basis": ba, "bit": bi,
                 "matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}
                for l, ba, bi, m in zip(p.labels, p.bases, p.bits, p.elements)]

    doc = {
        "dims": [2, 2],
        "alice_povm": povm_json(alice),
        "bob_povm": povm_json(bob),
        "probabilities": [
            {"alice": la, "bob": lb, "p": p} for (la, lb), p in data.entries().items()
        ],
        "source_constraint": False,
    }
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    spec = load_protocol(path)
    assert spec.kind == "custom"
    povms2, data2 = realize_protocol(spec)
    assert np.allclose(data2.probs, data.probs, atol=1e-12)
    cls = assemble_class(povms2, data2, spec)
    assert cls.residual(depolarized_bell(0.08)) < 1e-10


def test_load_protocol_rejects_incomplete():
    doc = {"dims": [2, 2], "alice_povm": [], "bob_povm": [], "probabilities": []}
    with pytest.raises(ValueError):
        load_protocol(doc)


@pytest.mark.parametrize("text", ["5", "[1, 2]", "null"])
def test_load_protocol_rejects_non_object_document(text):
    with pytest.raises(ValueError, match="JSON object"):
        load_protocol(io.StringIO(text))


def _random_povm(rng, d, n):
    """A random rank-2 (non-projective) POVM with n outcomes on C^d."""
    gs = rng.standard_normal((n, d, 2)) + 1j * rng.standard_normal((n, d, 2))
    parts = gs @ gs.conj().transpose(0, 2, 1)
    w, v = np.linalg.eigh(parts.sum(axis=0))
    inv_sqrt = (v / np.sqrt(w)) @ v.conj().T
    return Povm(elements=tuple(inv_sqrt @ parts @ inv_sqrt),
                labels=tuple(f"o{i}" for i in range(n)))


def test_array_protocol_layer_matches_elementwise_traces():
    rng = np.random.default_rng(7)
    alice, bob = _random_povm(rng, 2, 3), _random_povm(rng, 3, 4)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    probs = simulate_observed_data(DensityOperator(rho, (2, 3)), (alice, bob)).probs
    for i, a in enumerate(alice.elements):
        for j, b in enumerate(bob.elements):
            assert abs(probs[i, j] - np.trace(np.kron(a, b) @ rho).real) <= 1e-14
    for povm in (alice, bob):
        basis = build_basis(povm.dim)
        coeffs = povm_coefficients(povm, basis)
        assert coeffs.shape == (len(povm), len(basis))
        for i, m in enumerate(povm.elements):
            for k, s in enumerate(basis.elements):
                assert abs(coeffs[i, k] - np.trace(m @ s).real / povm.dim) <= 1e-14


def test_builtin_povms_and_bases_are_built_once():
    for make in (four_state_povms, six_state_povms):
        povms = make()
        assert make() is povms
        for p in povms:
            assert not p.stack.flags.writeable
            assert not any(m.flags.writeable for m in p.elements)
    for d in (2, 3):
        basis = build_basis(d)
        assert build_basis(d) is basis
        assert not basis.stack.flags.writeable
        assert not any(m.flags.writeable for m in basis.elements)


def test_povm_weights_given_as_a_list():
    alice, bob = four_state_povms([0.3, 0.7])
    assert four_state_povms((0.3, 0.7)) == (alice, bob)  # the same cached pair
    assert np.allclose(alice.elements[0], 0.3 * np.full((2, 2), 0.5), atol=1e-15)
    assert six_state_povms([0.2, 0.3, 0.5])[1].labels == ("X0", "X1", "Y0", "Y1", "Z0", "Z1")


@pytest.mark.parametrize("povms", [four_state_povms(), six_state_povms()],
                         ids=["four-state", "six-state"])
def test_data_matched_to_povms_by_label(povms):
    rng = np.random.default_rng(1)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    noise = g @ g.conj().T
    mat = 0.93 * depolarized_bell(0.02).matrix + 0.07 * noise / np.trace(noise).real
    data = simulate_observed_data(DensityOperator(mat, (2, 2)), povms)
    # the same table with Bob's labels listed in reverse
    rev = ObservedData(data.probs[:, ::-1], data.alice_labels, data.bob_labels[::-1])
    assert rev.entries() == data.entries()
    want = one_way_upper_bound(ProtocolSpec.custom(povms, data))
    for direction in ("direct", "reverse"):
        got = one_way_upper_bound(ProtocolSpec.custom(povms, rev, direction=direction))
        ref = want if direction == "direct" else one_way_upper_bound(
            ProtocolSpec.custom(povms, data, direction=direction))
        assert got.status == ref.status == "optimal"
        assert got.upper_bound == ref.upper_bound
        assert got.qber == ref.qber


def test_data_with_other_labels_rejected():
    alice, bob = four_state_povms()
    data = simulate_observed_data(depolarized_bell(0.05), (alice, bob))
    renamed = ObservedData(data.probs, data.alice_labels,
                           ("X0", "X1", "Z0", "z1"))
    with pytest.raises(ValueError, match=r"bob labels .*'z1'.* do not match"):
        assemble_class((alice, bob), renamed)


@pytest.mark.parametrize("meta", [
    {"bases": ("X", "X", "Z", "Z")},
    {"bases": ("X", "X", "Z"), "bits": (0, 1, 0)},
    {"bits": (0, 1)},
    {"bases": ("X", "X", "Z"), "bits": (0, 1, 0, 1)},
])
def test_povm_rejects_malformed_key_metadata(meta):
    alice, _ = four_state_povms()
    with pytest.raises(ValueError, match="bases"):
        Povm(alice.elements, alice.labels, **meta)


def test_observed_data_carries_no_key_metadata():
    with pytest.raises(TypeError):
        ObservedData(np.full((4, 4), 1 / 16), ("X0", "X1", "Z0", "Z1"),
                     ("X0", "X1", "Z0", "Z1"), bob_bases=("X", "X", "Z", "Z"),
                     bob_bits=(1, 0, 1, 0))


@pytest.mark.parametrize("povms", [four_state_povms(), six_state_povms()],
                         ids=["four-state", "six-state"])
def test_key_readers_match_table_to_povms_by_label(povms):
    data = simulate_observed_data(depolarized_bell(0.07), povms)
    # the same table with both parties' labels listed in reverse
    rev = ObservedData(data.probs[::-1, ::-1], data.alice_labels[::-1],
                       data.bob_labels[::-1])
    assert rev.entries() == data.entries()
    assert qber(rev, povms) == qber(data, povms)
    assert np.array_equal(matched_key_distribution(rev, povms).probabilities,
                          matched_key_distribution(data, povms).probabilities)
