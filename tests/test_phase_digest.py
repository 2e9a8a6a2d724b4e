"""Bit identity of phase evaluations.

One SHA-256 digest covers every bit _eval_phase gives on a fixed grid of
potentials, orders, energies and start node counts: Phi, each B_n, the
three E-slopes, the node count reached and the nodes evaluated, as
float.hex and decimal integers, or the type and text of the error raised.
A change meant to move no bit of any result keeps the digest; a change
that moves one must say why and record the new digest.
"""

import hashlib

import dunham.contour as ct
import dunham.solver as sv
from dunham.errors import DunhamError
from dunham.potential import parse_potential

POTENTIALS = ("x^4", "x^6", "x^2 + x^4", "x^4 + 0.5*x^3", "x^6 - x^4 + 2*x^2")
ORDERS = range(5)
ENERGIES = (1.0, 3.8, 11.6)

# recorded before the Q rows a plan does not read stopped being evaluated
GOLDEN = "da6d3d74c8732de730033a9a60960285614b76b43a6d9a5e80b28c27e1dc5fa4"


def phase_records():
    """One text line per (potential, order, E, start node count)."""
    for text in POTENTIALS:
        V = parse_potential(text)
        for order in ORDERS:
            request = sv.QuantizationRequest(V, 0, order)
            for E in ENERGIES:
                for start in (ct.cold_start_nodes(), 64):
                    head = f"{text}|{order}|{E.hex()}|{start}|"
                    try:
                        phase, acts = sv._eval_phase(request, E, start)
                    except DunhamError as exc:
                        yield head + f"{type(exc).__name__}: {exc}"
                        continue
                    fields = [phase.hex()]
                    fields += [f"{n}:{acts[n].hex()}" for n in sorted(acts)]
                    fields += [s.hex() for s in acts.slopes]
                    fields += [str(acts.nodes), str(acts.evaluated)]
                    yield head + " ".join(fields)


def phase_digest() -> str:
    h = hashlib.sha256()
    for line in phase_records():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_phase_bits_unchanged():
    assert phase_digest() == GOLDEN
