"""Privacy amplification over a broadcast channel with a passive observer.

Two protocols: with one local source of entropy rate above one half, the
weak-seed extractor distills the shared secret in a single message; with
two local constant-rate sources, both parties exchange them and feed the
three-source pipeline.  The channel is a perfect authenticated broadcast
and the eavesdropper's view is the transcript plus the leak register;
everything the parties compute depends only on their own inputs and the
transcript.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .bits import BitString
from .errors import InvalidInputError
from .extractors import ExtractorHandle


@dataclass
class PASession:
    """One completed privacy-amplification session."""

    protocol: str
    transcript: list = field(default_factory=list)  # (label, BitString)
    alice_key: BitString | None = None
    bob_key: BitString | None = None
    handle: ExtractorHandle | None = None

    @property
    def keys_agree(self) -> bool:
        return self.alice_key == self.bob_key

    def to_json(self, reveal: bool = False) -> str:
        d = {"protocol": self.protocol,
             "transcript": [{"label": lbl, "hex": v.to_hex(),
                             "width": v.width}
                            for lbl, v in self.transcript],
             "keys_agree": self.keys_agree}
        if reveal:
            d["alice_key"] = self.alice_key.to_hex()
            d["bob_key"] = self.bob_key.to_hex()
        else:
            d["keys"] = "withheld (pass reveal=True)"
        return json.dumps(d, indent=2)


def pa_one_source(x_alice: BitString, x_bob: BitString, y: BitString,
                  h: ExtractorHandle) -> PASession:
    """One-message protocol: the local source itself is the (weak) seed.

    ``h`` must be a weak-seed handle (built by the weak-seed transform);
    its declared seed entropy rate exceeds one half.  Both parties end
    with the same key because they apply the same function to the same
    shared secret and the same transmitted seed.
    """
    if x_alice != x_bob:
        raise InvalidInputError("the parties must share the same secret")
    if h.kind != "seeded":
        raise InvalidInputError("the one-source protocol needs a seeded handle")
    if (x_alice.width, y.width) != h.input_widths:
        raise InvalidInputError(
            f"handle expects widths {h.input_widths}, got "
            f"({x_alice.width}, {y.width})")
    key_a = h.evaluate(x_alice, y)
    key_b = h.evaluate(x_bob, y)
    return PASession("one-source", transcript=[("Y", y)],
                     alice_key=key_a, bob_key=key_b, handle=h)


def pa_two_sources(x: BitString, y1: BitString, y2: BitString,
                   h: ExtractorHandle) -> PASession:
    """Two-message protocol with two constant-rate local sources.

    Alice sends y1, Bob sends y2; both compute ``h(y1, y2, x)``.  The
    keys agree regardless of who transmits first since the final value
    is a fixed function of the triple.
    """
    if h.arity != 3:
        raise InvalidInputError("the two-source protocol needs a 3-input handle")
    if (y1.width, y2.width, x.width) != h.input_widths:
        raise InvalidInputError(
            f"handle expects widths {h.input_widths}, got "
            f"({y1.width}, {y2.width}, {x.width})")
    key_a = h.evaluate(y1, y2, x)
    key_b = h.evaluate(y1, y2, x)
    return PASession("two-sources", transcript=[("Y1", y1), ("Y2", y2)],
                     alice_key=key_a, bob_key=key_b, handle=h)
