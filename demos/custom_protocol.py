"""Run the bound on a protocol described by a JSON file.

Builds a four-state variant with biased basis weights (70% z, 30% x),
simulates its statistics on a depolarized Bell state, writes the whole
thing out in the JSON schema the loader accepts, loads it back, and
evaluates the bound.  The certified weight must not depend on the basis
bias: the equivalence class is fixed by the state family, not by how
often each basis is sampled.
"""

import json
import os
import tempfile

import numpy as np

from keybound import (Povm, ProtocolSpec, four_state_povms, load_protocol,
                      one_way_upper_bound, simulate_observed_data,
                      depolarized_bell)

E = 0.08
BASIS_WEIGHTS = {"X": 0.3, "Z": 0.7}


def biased(povm, weights):
    """The built-in four-state POVM (each basis at 1/2) with each basis
    measured at its weight in weights instead."""
    return Povm(tuple(2.0 * weights[basis] * mat
                      for mat, basis in zip(povm.elements, povm.bases)),
                povm.labels, povm.bases, povm.bits)


def povm_to_json(povm):
    out = []
    for mat, label, basis, bit in zip(povm.elements, povm.labels,
                                      povm.bases, povm.bits):
        out.append({
            "label": label, "basis": basis, "bit": bit,
            "matrix": {"re": np.real(mat).tolist(),
                       "im": np.imag(mat).tolist()},
        })
    return out


def main():
    alice, bob = (biased(povm, BASIS_WEIGHTS) for povm in four_state_povms())
    data = simulate_observed_data(depolarized_bell(E), (alice, bob))

    doc = {
        "dims": [2, 2],
        "alice_povm": povm_to_json(alice),
        "bob_povm": povm_to_json(bob),
        "probabilities": [
            {"alice": a, "bob": b, "p": float(data.probs[i, j])}
            for i, a in enumerate(alice.labels)
            for j, b in enumerate(bob.labels)
        ],
        "direction": "direct",
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "biased_four_state.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {path} ({os.path.getsize(path)} bytes, "
              f"{len(doc['probabilities'])} probability records)")
        spec = load_protocol(path)

    point = one_way_upper_bound(spec)
    print(f"\nbiased custom protocol at e = {E}:")
    print(f"  qber        = {point.qber:.6f}")
    print(f"  lambda_max  = {point.lambda_max:.9f}")
    print(f"  upper bound = {point.upper_bound:.9f}")

    builtin = one_way_upper_bound(ProtocolSpec("four-state", e=E))
    print(f"\nbuilt-in four-state at the same e:")
    print(f"  lambda_max  = {builtin.lambda_max:.9f}")
    print(f"  upper bound = {builtin.upper_bound:.9f}")
    print(f"\n|difference| = {abs(point.lambda_max - builtin.lambda_max):.2e} "
          "(basis bias does not move the class)")


if __name__ == "__main__":
    main()
