"""Prepare-and-measure protocols as operator data.

A protocol contributes three things to the bound pipeline: the two local
POVMs, the table of observed outcome probabilities, and option flags
(direction of one-way processing, whether the preparer's marginal is
fixed).  ``assemble_class`` turns these into the linear constraints

    sum_{k,l} a_{ik} b_{jl} r_{kl} = p_{ij},        r_{0,0} = 1,

on the expansion coefficients r of a joint state, where
a_{ik} = Tr(A_i S_k) / d_A and b_{jl} = Tr(B_j S_l) / d_B.  The set of
density operators satisfying them is the equivalence class of states
compatible with everything the protocol observes.

POVM outcomes carry optional (basis, bit) metadata.  Bit 0 tags the +1
eigenvector except in Bob's y basis, where the labels are inverted so
that the Bell reference state correlates positively in every basis and
the depolarized family shows error probability e in each.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .basis import build_basis, expand
from .infotheory import JointDistribution
from .sdp import _finite
from .states import DensityOperator, depolarized_bell

PSD_ATOL = 1e-10
COMPLETE_ATOL = 1e-10
PROB_SUM_ATOL = 1e-6
DEDUP_TOL = 1e-10
CONSISTENCY_TOL = 1e-8


class InconsistentDataError(ValueError):
    """No state can reproduce the observed probabilities."""


@dataclass(frozen=True)
class Povm:
    """A labeled POVM on one subsystem.

    bases/bits are optional per-outcome metadata (basis name, key bit);
    both present or both absent, one entry per outcome.  They are the only
    record of which outcome is which key bit: qber and the matched-basis
    key map read them from here.
    """

    elements: tuple
    labels: tuple
    bases: tuple | None = None
    bits: tuple | None = None

    def __post_init__(self):
        mats = [np.asarray(m, dtype=complex) for m in self.elements]
        if not mats:
            raise ValueError("POVM needs at least one element")
        shape = mats[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or any(m.shape != shape for m in mats):
            raise ValueError("POVM elements must share one square shape")
        stack = _finite(np.stack(mats), "elements")
        if np.max(np.abs(stack - stack.conj().transpose(0, 2, 1))) > PSD_ATOL:
            raise ValueError("POVM element is not Hermitian within 1e-10")
        if float(np.linalg.eigvalsh(stack)[:, 0].min()) < -PSD_ATOL:
            raise ValueError("POVM element has eigenvalue below -1e-10")
        if np.max(np.abs(stack.sum(axis=0) - np.eye(shape[0]))) > COMPLETE_ATOL:
            raise ValueError("POVM elements do not sum to the identity within 1e-10")
        labels = tuple(str(s) for s in self.labels)
        if len(labels) != len(mats):
            raise ValueError("one label per element required")
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be unique")
        if (self.bases is None) != (self.bits is None):
            raise ValueError("POVM: bases and bits must be given together")
        if self.bases is not None:
            if len(self.bases) != len(mats) or len(self.bits) != len(mats):
                raise ValueError("POVM: bases/bits must have one entry per outcome, "
                                 f"got {len(self.bases)}/{len(self.bits)} for {len(mats)}")
            object.__setattr__(self, "bases", tuple(str(b) for b in self.bases))
            object.__setattr__(self, "bits", tuple(int(b) for b in self.bits))
        stack.setflags(write=False)
        object.__setattr__(self, "elements", tuple(stack))
        object.__setattr__(self, "labels", labels)

    @functools.cached_property
    def stack(self):
        """All elements as one read-only (n, d, d) array."""
        stack = np.stack(self.elements)
        stack.setflags(write=False)
        return stack

    @property
    def dim(self):
        return self.elements[0].shape[0]

    def __len__(self):
        return len(self.elements)


def _qubit_states():
    s = 1.0 / math.sqrt(2.0)
    return {
        ("X", 0): np.array([s, s]),
        ("X", 1): np.array([s, -s]),
        ("Y", 0): np.array([s, 1.0j * s]),
        ("Y", 1): np.array([s, -1.0j * s]),
        ("Z", 0): np.array([1.0, 0.0]),
        ("Z", 1): np.array([0.0, 1.0]),
    }


def _binary_povm(basis_names, weights, flip_y_bits):
    vecs = _qubit_states()
    elements, labels, bases, bits = [], [], [], []
    for name, w in zip(basis_names, weights):
        for bit in (0, 1):
            sign = 1 - bit if (flip_y_bits and name == "Y") else bit
            v = vecs[(name, sign)]
            elements.append(w * np.outer(v, v.conj()))
            labels.append(f"{name}{bit}")
            bases.append(name)
            bits.append(bit)
    return Povm(tuple(elements), tuple(labels), tuple(bases), tuple(bits))


@functools.lru_cache(maxsize=8)
def _qubit_povms(basis_names, weights):
    if (len(weights) != len(basis_names) or abs(sum(weights) - 1.0) > 1e-12
            or min(weights) <= 0):
        raise ValueError(f"need {len(basis_names)} positive basis weights summing to 1")
    return (_binary_povm(basis_names, weights, flip_y_bits=False),
            _binary_povm(basis_names, weights, flip_y_bits=True))


def four_state_povms(weights=(0.5, 0.5)):
    """Alice and Bob POVMs for the four-state (x/z bases) protocol, built
    once per weights; every caller shares the read-only result."""
    return _qubit_povms(("X", "Z"), tuple(weights))


def six_state_povms(weights=(1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0)):
    """Alice and Bob POVMs for the six-state (x/y/z bases) protocol, built
    once per weights; every caller shares the read-only result.

    Bob's y-basis bit labels are inverted (bit 0 tags the -1 eigenvector)
    so matched outcomes on the Bell family correlate rather than
    anticorrelate.
    """
    return _qubit_povms(("X", "Y", "Z"), tuple(weights))


@dataclass(frozen=True)
class ObservedData:
    """Joint outcome probabilities for one pair of POVMs.

    probs[i, j] is the probability of Alice label i with Bob label j.
    Each party's labels are those of its POVM, in any order; every reader
    (assemble_class, qber, matched_key_distribution) matches them to the
    POVMs by label.  Which outcome is which key bit is a property of the
    POVMs, so the table carries no key metadata.
    """

    probs: np.ndarray
    alice_labels: tuple
    bob_labels: tuple

    def __post_init__(self):
        p = _finite(np.asarray(self.probs, dtype=float), "probs")
        if p.shape != (len(self.alice_labels), len(self.bob_labels)):
            raise ValueError("probability table shape does not match labels")
        if p.size and np.min(p) < -1e-12:
            raise ValueError(f"probability {np.min(p)} below -1e-12")
        if abs(p.sum() - 1.0) > PROB_SUM_ATOL:
            raise ValueError(f"probabilities sum to {p.sum()}, not 1")
        p = np.clip(p, 0.0, None)
        p.setflags(write=False)
        object.__setattr__(self, "probs", p)
        object.__setattr__(self, "alice_labels", tuple(self.alice_labels))
        object.__setattr__(self, "bob_labels", tuple(self.bob_labels))

    def entries(self):
        """The table as a dict {(alice label, bob label): probability}."""
        return {(la, lb): float(self.probs[i, j])
                for i, la in enumerate(self.alice_labels)
                for j, lb in enumerate(self.bob_labels)}

    def swapped(self):
        """The same data with the two parties exchanged."""
        return ObservedData(self.probs.T.copy(), self.bob_labels, self.alice_labels)


def simulate_observed_data(state, povms):
    """Born-rule probabilities p_ij = Tr((A_i (x) B_j) rho)."""
    alice, bob = povms
    if isinstance(state, DensityOperator):
        if state.dims != (alice.dim, bob.dim):
            raise ValueError(
                f"state dims {state.dims} do not match POVMs ({alice.dim}, {bob.dim})"
            )
        mat = state.matrix
    else:
        mat = np.asarray(state, dtype=complex)
        if mat.shape != (alice.dim * bob.dim,) * 2:
            raise ValueError("state matrix does not match POVM dimensions")
    # kron, then @, then trace: the arithmetic of Tr(np.kron(a, b) @ mat)
    na, nb, d = len(alice), len(bob), mat.shape[0]
    krons = np.einsum("aij,bkl->abikjl", alice.stack, bob.stack).reshape(na, nb, d, d)
    return ObservedData(np.trace(krons @ mat, axis1=2, axis2=3).real,
                        alice.labels, bob.labels)


def _matched_rounds(data, povms):
    """(table in the POVMs' label order, mask of its matched-basis label
    pairs, their total probability, Alice's bits, Bob's bits)."""
    alice, bob = povms
    if alice.bases is None or bob.bases is None:
        raise ValueError("the POVMs carry no basis metadata")
    probs = _in_povm_order(data, alice, bob).probs
    mask = np.equal.outer(np.array(alice.bases), np.array(bob.bases))
    matched = float(probs[mask].sum())
    if matched <= 0.0:
        raise ValueError("no matched-basis probability mass")
    return probs, mask, matched, np.array(alice.bits), np.array(bob.bits)


def qber(data, povms):
    """Probability that matched-basis bits disagree, given they matched.

    Bases and bits come from the POVMs (Alice's, Bob's); the table is
    matched to them by label.
    """
    probs, mask, matched, abits, bbits = _matched_rounds(data, povms)
    differ = mask & np.not_equal.outer(abits, bbits)
    return float(probs[differ].sum()) / matched


def matched_key_distribution(data, povms):
    """Joint bit distribution after pooling all matched-basis rounds.

    Bases and bits come from the POVMs, as in qber.  Mismatched-basis
    rounds are discarded and the rest renormalized, the usual
    bookkeeping when one basis is used almost always.
    """
    probs, mask, matched, abits, bbits = _matched_rounds(data, povms)
    nbits = int(max(abits.max(), bbits.max())) + 1
    table = np.zeros((nbits, nbits))
    i, j = np.nonzero(mask)
    # row-major order, as the rounds are listed: the sums keep their order
    np.add.at(table, (abits[i], bbits[j]), probs[i, j])
    return JointDistribution(table / matched)


def full_joint(data):
    """The raw outcome table as a JointDistribution (no pooling)."""
    return JointDistribution(np.array(data.probs))


@dataclass(frozen=True)
class ProtocolSpec:
    """What to run: protocol kind, error rate, direction, option flags.

    source_constraint None means the protocol default (on for four-state,
    where it encodes the prepare-and-measure source, off otherwise).
    Custom protocols carry their POVMs and data explicitly.
    """

    kind: str
    e: float | None = None
    direction: str = "direct"
    source_constraint: bool | None = None
    povms: tuple | None = None
    data: ObservedData | None = None
    alice_marginal: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in ("four-state", "six-state", "custom"):
            raise ValueError(f"unknown protocol kind {self.kind!r}")
        if self.direction not in ("direct", "reverse"):
            raise ValueError(f"direction must be direct or reverse, got {self.direction!r}")
        if self.kind == "custom":
            if self.povms is None or self.data is None:
                raise ValueError("custom protocols need povms and data")
        elif self.e is None:
            raise ValueError(f"{self.kind} protocol needs an error rate e")

    @staticmethod
    def four_state(e, direction="direct", source_constraint=None):
        return ProtocolSpec("four-state", e=float(e), direction=direction,
                            source_constraint=source_constraint)

    @staticmethod
    def six_state(e, direction="direct", source_constraint=None):
        return ProtocolSpec("six-state", e=float(e), direction=direction,
                            source_constraint=source_constraint)

    @staticmethod
    def custom(povms, data, direction="direct", source_constraint=None,
               alice_marginal=None):
        return ProtocolSpec("custom", direction=direction,
                            source_constraint=source_constraint,
                            povms=tuple(povms), data=data,
                            alice_marginal=alice_marginal)

    def resolved_source_constraint(self):
        if self.source_constraint is not None:
            return bool(self.source_constraint)
        return self.kind == "four-state"

    def with_direction(self, direction):
        return replace(self, direction=direction)


def realize_protocol(spec):
    """Return (povms, data) for a ProtocolSpec.

    Built-in kinds simulate the depolarized Bell family at the requested
    error rate.
    """
    if spec.kind == "custom":
        return spec.povms, spec.data
    povms = four_state_povms() if spec.kind == "four-state" else six_state_povms()
    return povms, simulate_observed_data(depolarized_bell(spec.e), povms)


@dataclass(frozen=True)
class EquivalenceClassSpec:
    """Linear constraints pinning the equivalence class of joint states.

    rows @ r = rhs over the flattened coefficient grid r_{kl} (Alice
    index major).  After assembly the party to be extended is always the
    second subsystem; ``direction`` records whether that required a
    relabeling of the inputs.
    """

    dims: tuple
    rows: np.ndarray
    rhs: np.ndarray
    direction: str = "direct"
    alice: Povm | None = None
    bob: Povm | None = None
    data: ObservedData | None = None
    n_raw_rows: int = 0

    def __post_init__(self):
        rows = _finite(np.asarray(self.rows, dtype=float), "rows")
        rhs = _finite(np.asarray(self.rhs, dtype=float), "rhs")
        da, db = self.dims
        if rows.ndim != 2 or rows.shape[1] != da * da * db * db:
            raise ValueError("constraint rows do not match the coefficient grid")
        if rhs.shape != (rows.shape[0],):
            raise ValueError("one right-hand side per row required")
        rows.setflags(write=False)
        rhs.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "dims", tuple(int(n) for n in self.dims))

    @property
    def n_rows(self):
        return self.rows.shape[0]

    def residual(self, state):
        """Largest violation of the constraints by a given state."""
        da, db = self.dims
        coeffs = expand(state.matrix if isinstance(state, DensityOperator) else state,
                        (build_basis(da), build_basis(db)))
        return float(np.max(np.abs(self.rows @ coeffs.ravel() - self.rhs)))


def _independent_rows(rows):
    """Indices of rows kept by sequential orthogonal projection."""
    kept = []
    ortho = np.empty((0, rows.shape[1]))
    for idx, row in enumerate(rows):
        resid = row - ortho.T @ (ortho @ row)
        # second pass for numerical safety
        resid -= ortho.T @ (ortho @ resid)
        norm = float(np.linalg.norm(resid))
        if norm > DEDUP_TOL * max(1.0, float(np.linalg.norm(row))):
            kept.append(idx)
            ortho = np.vstack([ortho, resid / norm])
    return kept


def povm_coefficients(povm, basis):
    """Expansion weights c_ik = Tr(E_i S_k) / d for each POVM element."""
    prods = povm.stack[:, None] @ basis.stack[None]
    return np.trace(prods, axis1=2, axis2=3).real / povm.dim


def assemble_class(povms, data, spec=None):
    """Build the equivalence-class constraints for POVMs and observed data.

    Parameters
    ----------
    povms : (Povm, Povm)
        Alice's and Bob's POVMs.
    data : ObservedData or None
        Outcome probabilities, matched to the POVM elements by label;
        None adds no probability rows, leaving the class of all states
        (plus any source rows).
    spec : ProtocolSpec, optional
        Supplies direction and source-constraint options; defaults to
        direct processing with no source constraint.

    Notes
    -----
    For reverse one-way processing the parties are relabeled up front
    (POVMs swapped, data transposed), so the extension construction
    downstream always extends the second subsystem.  The source
    constraint pins every local coefficient of the preparer, whichever
    slot the preparer occupies after relabeling.

    Raises InconsistentDataError when no coefficient vector satisfies all
    rows (augmented rank exceeds row rank beyond tolerance), and
    ValueError when the data's labels are not the POVMs' labels.
    """
    alice, bob = povms
    if data is not None:
        data = _in_povm_order(data, alice, bob)
    direction = spec.direction if spec is not None else "direct"
    use_source = spec.resolved_source_constraint() if spec is not None else False
    marginal = spec.alice_marginal if spec is not None else None
    if marginal is None and use_source:
        if alice.dim != 2:
            raise ValueError("source constraint needs an explicit alice_marginal "
                             "for non-qubit preparers")
        marginal = np.eye(2) / 2.0

    source_slot = 0
    if direction == "reverse":
        alice, bob = bob, alice
        data = data.swapped() if data is not None else None
        source_slot = 1

    da, db = alice.dim, bob.dim
    basis_a, basis_b = build_basis(da), build_basis(db)
    na, nb = len(basis_a), len(basis_b)

    # r_00 = 1, then the preparer's local coefficients r_k0 (or r_0k)
    unit = np.eye(na * nb)
    rows, rhs = [unit[:1]], [np.ones(1)]
    if use_source:
        srcb = basis_a if source_slot == 0 else basis_b
        marginal = np.asarray(marginal)
        if marginal.shape != (srcb.dim, srcb.dim):
            raise ValueError("alice_marginal shape does not match the preparer")
        rows.append(unit[::nb] if source_slot == 0 else unit[:nb])
        rhs.append(np.trace(marginal @ srcb.stack, axis1=1, axis2=2).real)
    if data is not None:
        ca = povm_coefficients(alice, basis_a)
        cb = povm_coefficients(bob, basis_b)
        rows.append(np.einsum("ik,jl->ijkl", ca, cb).reshape(-1, na * nb))
        rhs.append(data.probs.ravel())

    A = np.concatenate(rows)
    b = np.concatenate(rhs)

    # consistency: the rows obey linear identities; the rhs must too
    x, *_ = np.linalg.lstsq(A, b, rcond=None)
    gap = float(np.linalg.norm(A @ x - b))
    if gap > CONSISTENCY_TOL * max(1.0, float(np.linalg.norm(b))):
        raise InconsistentDataError(
            f"no state reproduces the data: residual {gap:.3e} after projection")

    kept = _independent_rows(A)
    return EquivalenceClassSpec(
        dims=(da, db),
        rows=A[kept],
        rhs=b[kept],
        direction=direction,
        alice=alice,
        bob=bob,
        data=data,
        n_raw_rows=A.shape[0],
    )


def _in_povm_order(data, alice, bob):
    """data with its rows and columns in the label order of the POVMs."""
    idx = {}
    for party, povm in (("alice", alice), ("bob", bob)):
        have = getattr(data, f"{party}_labels")
        if len(have) != len(povm) or set(have) != set(povm.labels):
            raise ValueError(f"observed {party} labels {list(have)} do not match "
                             f"the POVM labels {list(povm.labels)}")
        idx[party] = [have.index(label) for label in povm.labels]
    return ObservedData(data.probs[np.ix_(idx["alice"], idx["bob"])], alice.labels,
                        bob.labels)


def class_from_state(state):
    """The singleton class that pins every coefficient of one state."""
    da, db = state.dims
    coeffs = expand(state.matrix, (build_basis(da), build_basis(db)))
    n = coeffs.ravel().size
    return EquivalenceClassSpec(dims=(da, db), rows=np.eye(n),
                                rhs=coeffs.ravel().copy(), n_raw_rows=n)


def _matrix_from_json(obj, what):
    if not isinstance(obj, dict) or "re" not in obj:
        raise ValueError(f"{what}: expected an object with 're' (and optional 'im')")
    re = np.asarray(obj["re"], dtype=float)
    if re.ndim != 2 or re.shape[0] != re.shape[1]:
        raise ValueError(f"{what}: 're' must be a square matrix")
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    if im.shape != re.shape:
        raise ValueError(f"{what}: 'im' shape differs from 're'")
    return re + 1.0j * im


def _json_number(convert, value, what):
    """convert(value), or ValueError naming the field when value is not a
    number (null, an object, ...)."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{what} must be a number, got {value!r}") from None


def _json_list(value, what):
    """value, or ValueError naming the field when it is not a JSON list."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} must be a list, got {value!r}")
    return value


def _povm_from_json(items, dim, party):
    elements = []
    for idx, item in enumerate(_json_list(items, party)):
        what = f"{party} element {idx}"
        if not isinstance(item, dict):
            raise ValueError(f"{what}: expected an object, got {item!r}")
        if "label" not in item or "matrix" not in item:
            raise ValueError(f"{what}: needs 'label' and 'matrix'")
        m = _matrix_from_json(item["matrix"], what)
        if m.shape != (dim, dim):
            raise ValueError(f"{what}: matrix is {m.shape}, expected {(dim, dim)}")
        elements.append(m)
    has_meta = ["basis" in item and "bit" in item for item in items]
    if any(has_meta) and not all(has_meta):
        raise ValueError(f"{party}: give basis/bit on every element or on none")
    bases = bits = None
    if any(has_meta):
        bases = [item["basis"] for item in items]
        bits = [_json_number(int, item["bit"], f"{party} element {idx}: 'bit'")
                for idx, item in enumerate(items)]
    return Povm(tuple(elements), tuple(item["label"] for item in items), bases, bits)


def load_protocol(source):
    """Load a custom protocol description from JSON.

    ``source`` is a path, a file object, or an already-parsed dict.
    Schema (see README for a worked example)::

        {
          "dims": [dA, dB],
          "alice_povm": [{"label": ..., "basis": ..., "bit": ...,
                          "matrix": {"re": [[...]], "im": [[...]]}}, ...],
          "bob_povm":   [...],
          "probabilities": [{"alice": label, "bob": label, "p": float}, ...],
          "direction": "direct" | "reverse",            (optional)
          "source_constraint": true | false,            (optional)
          "alice_marginal": {"re": [[...]], "im": ...}  (optional)
        }

    basis/bit metadata is optional but required for error-rate reporting
    and for the matched-basis key map; 'im' defaults to zero.
    """
    if isinstance(source, dict):
        doc = source
    elif hasattr(source, "read"):
        doc = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            doc = json.load(fh)

    if not isinstance(doc, dict):
        raise ValueError(f"a protocol file holds a JSON object, got {doc!r}")
    for field_name in ("dims", "alice_povm", "bob_povm", "probabilities"):
        if field_name not in doc:
            raise ValueError(f"protocol file is missing {field_name!r}")
    dims = doc["dims"]
    if (not isinstance(dims, (list, tuple)) or len(dims) != 2
            or any(_json_number(int, d, "dims") < 2 for d in dims)):
        raise ValueError("dims must be two integers >= 2")
    da, db = int(dims[0]), int(dims[1])
    alice = _povm_from_json(doc["alice_povm"], da, "alice_povm")
    bob = _povm_from_json(doc["bob_povm"], db, "bob_povm")

    table = np.zeros((len(alice), len(bob)))
    seen = np.zeros(table.shape, dtype=bool)
    a_index = {lab: i for i, lab in enumerate(alice.labels)}
    b_index = {lab: j for j, lab in enumerate(bob.labels)}
    for idx, rec in enumerate(_json_list(doc["probabilities"], "probabilities")):
        if not isinstance(rec, dict):
            raise ValueError(f"probability record {idx}: expected an object, got {rec!r}")
        try:
            i, j = a_index[rec["alice"]], b_index[rec["bob"]]
        except KeyError as exc:
            raise ValueError(f"probability record {idx}: unknown label {exc}") from None
        if seen[i, j]:
            raise ValueError(f"probability record {idx}: duplicate pair")
        seen[i, j] = True
        table[i, j] = _json_number(float, rec.get("p"), f"probability record {idx}: 'p'")
    if not seen.all():
        raise ValueError("probabilities must cover every (alice, bob) label pair")

    data = ObservedData(table, alice.labels, bob.labels)
    marginal = None
    if "alice_marginal" in doc:
        marginal = _matrix_from_json(doc["alice_marginal"], "alice_marginal")
        if marginal.shape != (da, da):
            raise ValueError("alice_marginal does not match dims")
    direction = doc.get("direction", "direct")
    source_constraint = doc.get("source_constraint")
    if source_constraint is not None:
        source_constraint = bool(source_constraint)
    return ProtocolSpec.custom((alice, bob), data, direction=direction,
                               source_constraint=source_constraint,
                               alice_marginal=marginal)
