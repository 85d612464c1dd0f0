import json
import math

import numpy as np
import pytest

from keybound import extendibility
from keybound.basis import build_basis, expand
from keybound.bounds import one_way_upper_bound
from keybound.cli import main
from keybound.infotheory import mutual_information
from keybound.protocols import (
    CONSISTENCY_TOL, EquivalenceClassSpec, InconsistentDataError, ObservedData, Povm,
    ProtocolSpec, _class_rows, _independent_rows, assemble_class,
    class_from_state, four_state_povms, load_protocol,
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
    for kind, src, n_rows in (
        ("four-state", True, 10),
        ("four-state", False, 9),
        ("six-state", None, 16),
    ):
        spec = (ProtocolSpec("four-state", e=0.08, source_constraint=src)
                if kind == "four-state" else ProtocolSpec("six-state", e=0.08))
        povms, data = realize_protocol(spec)
        cls = assemble_class(povms, data, spec)
        assert cls.rows.shape == (n_rows, 16)
        assert cls.rows.shape[0] == np.linalg.matrix_rank(cls.rows)


@pytest.mark.parametrize("kind", ["four-state", "six-state"])
def test_independent_rows_found_once_per_row_set(kind):
    # the points of a sweep share their rows, so the kept rows are found
    # once, and every class holds the same read-only array
    _class_rows.cache_clear()
    classes = [assemble_class(*realize_protocol(spec), spec)
               for spec in (ProtocolSpec(kind, e=e) for e in (0.02, 0.1))]
    info = _class_rows.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert classes[0].rows is classes[1].rows
    assert not any(cls.rows.flags.writeable for cls in classes)


def test_independent_rows_keep_the_first_of_dependent_rows():
    rows = np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 1.0], [1.0, 1.0, 1.0]])
    kept = _independent_rows(rows)
    assert kept.tolist() == [0, 2]
    assert not kept.flags.writeable


@pytest.mark.parametrize("e", [0.0, 0.06, 0.15])
def test_class_residual_vanishes_on_generating_state(e):
    spec = ProtocolSpec("six-state", e=e)
    povms, data = realize_protocol(spec)
    cls = assemble_class(povms, data, spec)
    assert cls.residual(depolarized_bell(e)) < 1e-12


def test_six_state_class_pins_state_completely():
    # 16 independent rows on a 16-dim coefficient space: unique solution
    spec = ProtocolSpec("six-state", e=0.09)
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
                       ProtocolSpec("four-state", e=0.1, source_constraint=True))


@pytest.mark.parametrize("factor, raises", [(0.99, False), (1.01, True)])
def test_inconsistency_threshold(factor, raises):
    # Moving probability delta from outcome pair (0, 0) to (0, 1) breaks
    # the marginals; the least-squares fit of every class row then misses
    # the data by delta * g, linear in delta.  The data are refused when
    # that miss exceeds CONSISTENCY_TOL * max(1, ||b||), and only then.
    alice, bob = four_state_povms()
    rho = depolarized_bell(0.1)
    data = simulate_observed_data(rho, (alice, bob))
    A = _class_rows(alice, bob, 0)[0]
    u = np.zeros(A.shape[0])
    u[-data.probs.size:][:2] = (1.0, -1.0)
    g = np.linalg.norm(A @ np.linalg.lstsq(A, u, rcond=None)[0] - u)
    b_norm = np.linalg.norm(A @ expand(rho.matrix, (build_basis(2),) * 2).ravel())
    delta = factor * CONSISTENCY_TOL * max(1.0, b_norm) / g
    bad = data.probs.copy()
    bad[0, 0] += delta
    bad[0, 1] -= delta
    tampered = ObservedData(probs=bad, alice_labels=data.alice_labels,
                            bob_labels=data.bob_labels)
    spec = ProtocolSpec("four-state", e=0.1, source_constraint=True)
    if raises:
        with pytest.raises(InconsistentDataError):
            assemble_class((alice, bob), tampered, spec)
    else:
        assemble_class((alice, bob), tampered, spec)


def perturbed_four_state(delta):
    """four_state_povms() with Bob's X0 moved by +delta H and his Z0 by
    -delta H, H = [[0, -0.1j], [0.1j, 0]], so the POVM stays complete
    and every identity its rows obey holds only to rounding; and
    signalling data on them: the depolarized_bell(0.05) table with 0.01
    moved from Alice's X1 to her X0 in Bob's Z0 column."""
    alice, bob = four_state_povms()
    H = np.array([[0.0, -0.1j], [0.1j, 0.0]])
    shift = {"X0": delta * H, "Z0": -delta * H}
    bob = Povm(tuple(m + shift.get(label, 0.0) for label, m in zip(bob.labels, bob.elements)),
               bob.labels, bob.bases, bob.bits)
    data = simulate_observed_data(depolarized_bell(0.05), (alice, bob))
    probs = data.probs.copy()
    z0 = bob.labels.index("Z0")
    probs[alice.labels.index("X1"), z0] -= 0.01
    probs[alice.labels.index("X0"), z0] += 0.01
    return (alice, bob), ObservedData(probs, data.alice_labels, data.bob_labels)


@pytest.mark.parametrize("delta", [0.0, 1e-12, 1e-11, 3e-10, 1e-9])
def test_signalling_data_refused_on_nearly_dependent_rows(delta):
    # Alice's marginal, read in Bob's X and Z columns, differs by 0.01 on
    # each of her X outcomes: the data miss two identities of the rows by
    # 0.01 / 2 each, 0.01 / sqrt(2) in all.  The rows kept at delta > 0
    # are the 9 kept at 0, and the consistency test checks every identity
    # among the rows they drop, however small the singular values the
    # perturbation gives those identities
    povms, data = perturbed_four_state(delta)
    assert _class_rows(*povms, None)[2].size == 9
    with pytest.raises(InconsistentDataError, match="residual") as err:
        assemble_class(povms, data)
    assert err.value.residual == pytest.approx(0.01 / math.sqrt(2.0), rel=1e-6)


@pytest.mark.parametrize("delta", [3e-9, 1e-5])
def test_signalling_data_on_independent_rows_refused_by_the_witness_ray(delta, tmp_path, capsys):
    # from 3e-9 on, the perturbation leaves the 12 rows independent, so the
    # consistency test has no identity to check and the class assembles;
    # the witness program then ends on a primal ray, which proves that no
    # state meets the rows: the same InconsistentDataError, with the ray's
    # b.d at ||d|| = 1 as its residual, and the CLI exits 2, as for data
    # the consistency test refuses
    povms, data = perturbed_four_state(delta)
    assert _class_rows(*povms, None)[2].size == 12
    with pytest.raises(InconsistentDataError, match="primal ray") as err:
        extendibility.best_extendible_decomposition(assemble_class(povms, data))
    assert 0.0 < err.value.residual < 0.01
    records = [{"label": label, "matrix": {"re": m.real.tolist(), "im": m.imag.tolist()}}
               for label, m in zip(povms[1].labels, povms[1].elements)]
    doc = {"dims": [2, 2], "bob_povm": records,
           "alice_povm": [{"label": label, "matrix": {"re": m.real.tolist()}}
                          for label, m in zip(povms[0].labels, povms[0].elements)],
           "probabilities": [{"alice": la, "bob": lb, "p": p}
                             for (la, lb), p in data.entries().items()]}
    path = tmp_path / "signalling.json"
    path.write_text(json.dumps(doc))
    assert main(["bound", "--protocol", "custom", "--custom-file", str(path)]) == 2
    assert "no state meets the class rows" in capsys.readouterr().err


@pytest.mark.parametrize("row_set", [
    (kind, slot, direction) for kind in ("four-state", "six-state")
    for slot in (None, 0, 1) for direction in ("direct", "reverse")] + ["perturbed"])
def test_kept_rows_cut_both_null_bases(row_set):
    # _independent_rows is the one rank decision for class rows: the left
    # null basis of _class_rows and the null basis N of _row_set have as
    # many columns as the rows it drops leave
    if row_set == "perturbed":
        (alice, bob), _ = perturbed_four_state(1e-9)
        slot, n_kept = None, 9
    else:
        kind, slot, direction = row_set
        alice, bob = four_state_povms() if kind == "four-state" else six_state_povms()
        if direction == "reverse":
            alice, bob = bob, alice
        n_kept = 16 if kind == "six-state" else 9 if slot is None else 10
    A, _, kept, null = _class_rows(alice, bob, slot)
    assert kept.size == n_kept
    assert null.shape == (len(A), len(A) - kept.size)
    N = extendibility._row_set(A.tobytes(), A.shape, (alice.dim, bob.dim))[2]
    assert N.shape == (A.shape[1], A.shape[1] - kept.size)


def test_class_from_state_and_trivial():
    cls = class_from_state(depolarized_bell(0.05))
    assert cls.rows.shape == (16, 16)
    assert cls.residual(depolarized_bell(0.05)) < 1e-12
    assert cls.residual(depolarized_bell(0.06)) > 1e-4
    triv = trivial_class((2, 2))
    assert triv.rows.shape == (1, 16)
    assert triv.residual(depolarized_bell(0.3)) < 1e-12


def test_reverse_direction_swaps_parties():
    spec = ProtocolSpec("six-state", e=0.08, direction="reverse")
    povms, data = realize_protocol(spec)
    fwd_povms, fwd_data = realize_protocol(ProtocolSpec("six-state", e=0.08))
    assert np.allclose(data.probs, fwd_data.probs.T, atol=1e-12)
    assert qber(data, povms) == pytest.approx(0.08, abs=1e-12)
    cls = assemble_class(povms, data, spec)
    # the swapped class still contains the (symmetric) generating state
    assert cls.residual(depolarized_bell(0.08)) < 1e-10


@pytest.mark.parametrize("marginal, field", [
    ([[0.5, 0.2j], [0.2j, 0.5]], "not Hermitian"),
    ([[1.0, 0.0], [0.0, 1.0]], "trace is 2.0"),
    ([[1.2, 0.0], [0.0, -0.2]], "smallest eigenvalue -0.2"),
    (np.eye(3) / 3, "does not match dims"),
], ids=["non-hermitian", "trace-2", "negative", "wrong-shape"])
@pytest.mark.parametrize("source_constraint", [True, False])
def test_assemble_class_refuses_a_marginal_that_is_not_a_density_matrix(
        marginal, field, source_constraint):
    # the rows read Tr(marginal S_k).real alone, which would take a
    # non-Hermitian marginal for its Hermitian part and blame the data for
    # the others; a marginal is checked whether or not the rows read it
    alice, bob = four_state_povms()
    data = simulate_observed_data(depolarized_bell(0.05), (alice, bob))
    spec = ProtocolSpec("custom", povms=(alice, bob), data=data,
                        source_constraint=source_constraint, alice_marginal=np.array(marginal))
    with pytest.raises(ValueError, match=f"alice_marginal is not a density matrix: .*{field}"):
        assemble_class((alice, bob), data, spec)


def _four_state_doc():
    """The four-state protocol at e = 0.08 as a custom-protocol document."""
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
    return doc, data


def test_load_protocol_roundtrip(tmp_path):
    doc, data = _four_state_doc()
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    spec = load_protocol(path)
    assert spec.kind == "custom"
    povms2, data2 = realize_protocol(spec)
    assert np.allclose(data2.probs, data.probs, atol=1e-12)
    cls = assemble_class(povms2, data2, spec)
    assert cls.residual(depolarized_bell(0.08)) < 1e-10


def test_load_protocol_rejects_incomplete(tmp_path):
    doc = {"dims": [2, 2], "alice_povm": [], "bob_povm": [], "probabilities": []}
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError):
        load_protocol(path)


def _entry_as(kind, field):
    """Write one matrix entry of Alice's first element as another JSON type."""
    def corrupt(doc):
        row = doc["alice_povm"][0]["matrix"][field][0]
        row[0] = kind(row[0])
    return corrupt


def _p_as(kind):
    """Write the first probability as another JSON type."""
    def corrupt(doc):
        doc["probabilities"][0]["p"] = kind(doc["probabilities"][0]["p"])
    return corrupt


@pytest.mark.parametrize("corrupt, field", [
    (_p_as(str), "probability record 0: 'p'"),
    (_p_as(lambda p: 10 ** 400), "probability record 0: 'p'"),
    (_entry_as(str, "re"), "alice_povm element 0: 're'"),
    (_entry_as(bool, "im"), "alice_povm element 0: 'im'"),
], ids=["string-p", "huge-integer-p", "string-entry", "boolean-entry"])
def test_load_protocol_accepts_only_json_numbers(tmp_path, corrupt, field):
    # a string or bool converts to the float it replaces, so only the type
    # is wrong; an integer beyond the float range used to raise OverflowError
    doc = _four_state_doc()[0]
    corrupt(doc)
    path = tmp_path / "proto.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"{field} must be a number"):
        load_protocol(path)


@pytest.mark.parametrize("text", ["5", "[1, 2]", "null"])
def test_load_protocol_rejects_non_object_document(tmp_path, text):
    path = tmp_path / "proto.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="JSON object"):
        load_protocol(path)


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
            for k, s in enumerate(basis):
                assert abs(coeffs[i, k] - np.trace(m @ s).real / povm.dim) <= 1e-14


def test_builtin_povms_and_bases_are_built_once():
    for make in (four_state_povms, six_state_povms):
        povms = make()
        assert make() is povms
        for p in povms:
            assert not p.elements.flags.writeable
            assert not any(m.flags.writeable for m in p.elements)
    for d in (2, 3):
        basis = build_basis(d)
        assert build_basis(d) is basis
        assert not basis.flags.writeable
        assert not any(m.flags.writeable for m in basis)


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
    want = one_way_upper_bound(ProtocolSpec("custom", povms=povms, data=data))
    for direction in ("direct", "reverse"):
        got = one_way_upper_bound(ProtocolSpec("custom", povms=povms, data=rev,
                                               direction=direction))
        ref = want if direction == "direct" else one_way_upper_bound(
            ProtocolSpec("custom", povms=povms, data=data, direction=direction))
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


@pytest.mark.parametrize("bits", [(-1, 0, -1, 0), (0, 1.5, 0, 1), (0, "1", 0, 1),
                                  (0, None, 0, 1), (False, True, False, True)],
                         ids=["negative", "fractional", "string", "none", "boolean"])
def test_povm_refuses_bits_that_are_not_non_negative_integers(bits):
    # bits -1/0 used to wrap onto the last row of the key table and give a
    # bound of 0 with status optimal; bit 1.5 used to be truncated to 1,
    # and bit False stored as 0, where a protocol file's false is refused
    for povm in four_state_povms():
        with pytest.raises(ValueError, match="bits"):
            Povm(povm.elements, povm.labels, povm.bases, bits)


def test_povm_stores_integer_bits_as_ints():
    alice, _ = four_state_povms()
    povm = Povm(alice.elements, alice.labels, alice.bases, (0, 1, np.int64(0), np.int64(1)))
    assert povm.bits == (0, 1, 0, 1)
    assert all(type(b) is int for b in povm.bits)


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
