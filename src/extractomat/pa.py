"""Privacy amplification over a broadcast channel with a passive observer.

Two protocols: with one local source of entropy rate above one half, the
weak-seed extractor distills the shared secret in a single message; with
two local constant-rate sources, both parties exchange them and feed the
three-source pipeline.  The channel is a perfect authenticated broadcast
and the eavesdropper's view is the transcript plus the leak register.

Keys agree by the definition of each protocol, not by a check: both
parties apply the same handle to the same shared secret and the same
broadcast values, and the key is a fixed function of them, so neither
who speaks first nor anything else can set the two keys apart.  What
remains to measure is secrecy: :func:`pa_distance` is the exact distance
of the key from uniform given the inputs the transcript reveals and the
leak register.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInputError
from .extractors import ExtractorHandle
from .leakage import LeakageScenario
from .oracle import exact_distance

# protocol -> (handle kind, inputs, inputs the transcript reveals)
PROTOCOLS = {
    # the handle reads (X, Y); Alice broadcasts the weak seed Y
    "one-source": ("seeded", 2, (1,)),
    # the handle reads (Y1, Y2, X); Alice broadcasts Y1, Bob Y2
    "two-sources": ("t-source", 3, (0, 1)),
}


def pa_distance(protocol: str, h: ExtractorHandle, sources,
                scenario: LeakageScenario | None = None) -> Fraction:
    """The eavesdropper's exact distance in ``protocol``: the key
    ``h(sources)`` against uniform given the transcript's inputs and the
    leak register of ``scenario``.  ``sources`` holds one exact source
    per input of ``h``, in the handle's order."""
    if protocol not in PROTOCOLS:
        raise InvalidInputError(f"protocol must be one of "
                                f"{sorted(PROTOCOLS)}, got {protocol!r}")
    kind, arity, revealed = PROTOCOLS[protocol]
    if (h.kind, h.arity) != (kind, arity):
        raise InvalidInputError(f"the {protocol} protocol needs a {kind} "
                                f"handle with {arity} inputs, got {h!r}")
    return exact_distance(h, sources, strong=revealed, scenario=scenario)
