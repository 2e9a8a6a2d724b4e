"""Bit identity of spectrum outcomes.

One SHA-256 digest covers every bit spectrum gives on a fixed grid of
potentials, orders 0-3 and four levels, each without a seed and with one
caller seed per potential: per level E, the residual and the actions as
float.hex and the warnings, or the type and text of each failure.  A change
meant to move no bit of any result, such as sharing evaluations between
levels, keeps the digest; a change that moves one must say why and record
the new digest.
"""

import hashlib

import dunham.solver as sv
from dunham.errors import DunhamError, SpectrumError
from dunham.potential import parse_potential

SEEDS = {
    "x^4": 2.0,
    "x^6": 2.0,
    "x^2 + x^4": 3.0,
    "x^4 + 0.5*x^3": 1.0,
    "x^6 - x^4 + 2*x^2": 2.5,
}
ORDERS = range(4)
LEVELS = 4

# recorded before spectrum's levels shared evaluations by energy and start count
GOLDEN = "2052ec4ade9860ab8c7e98298c9f378131c0bc81f43cc724c5d438c6c0d8ade9"


def spectrum_records():
    """One text line per level or failure of each (potential, order, seed)."""
    for text, caller_seed in SEEDS.items():
        V = parse_potential(text)
        for order in ORDERS:
            for seed in (None, caller_seed):
                head = f"{text}|{order}|{seed!r}|"
                try:
                    results, failures = sv.spectrum(V, LEVELS, order, seed), {}
                except SpectrumError as exc:
                    results, failures = exc.results, exc.failures
                    yield head + f"SpectrumError: {exc}"
                except DunhamError as exc:
                    yield head + f"{type(exc).__name__}: {exc}"
                    continue
                for r in results:
                    fields = [str(r.K), r.E.hex(), r.residual.hex()]
                    fields += [a.hex() for a in r.actions]
                    fields += [str(r.optimal_truncation_index), *r.warnings]
                    yield head + " ".join(fields)
                for K, exc in failures.items():
                    yield head + f"{K} {type(exc).__name__}: {exc}"


def spectrum_digest() -> str:
    h = hashlib.sha256()
    for line in spectrum_records():
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def test_spectrum_bits_unchanged():
    assert spectrum_digest() == GOLDEN
