"""State encodings for FSM synthesis."""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Mapping

from ..errors import FSMError
from .model import FSM


@dataclass(frozen=True)
class StateEncoding:
    """Assignment of binary codes to FSM states."""

    style: str
    width: int
    codes: Mapping[str, int]

    def code_of(self, state: str) -> int:
        try:
            return self.codes[state]
        except KeyError:
            raise FSMError(f"state {state!r} has no code") from None

    @property
    def num_flip_flops(self) -> int:
        """One flip-flop per code bit."""
        return self.width


def binary_encoding(fsm: FSM) -> StateEncoding:
    """Minimum-width binary encoding in state-declaration order."""
    width = max(1, math.ceil(math.log2(max(1, fsm.num_states))))
    codes = {state: i for i, state in enumerate(fsm.states)}
    return StateEncoding(style="binary", width=width, codes=codes)


def one_hot_encoding(fsm: FSM) -> StateEncoding:
    """One flip-flop per state."""
    codes = {state: 1 << i for i, state in enumerate(fsm.states)}
    return StateEncoding(style="one-hot", width=fsm.num_states, codes=codes)


def gray_encoding(fsm: FSM) -> StateEncoding:
    """Gray-code encoding (adjacent declaration order differs in one bit)."""
    width = max(1, math.ceil(math.log2(max(1, fsm.num_states))))
    codes = {
        state: i ^ (i >> 1) for i, state in enumerate(fsm.states)
    }
    return StateEncoding(style="gray", width=width, codes=codes)


_ENCODERS = {
    "binary": binary_encoding,
    "one-hot": one_hot_encoding,
    "gray": gray_encoding,
}


def encode(fsm: FSM, style: str = "binary") -> StateEncoding:
    """Encode an FSM's states with a named style."""
    try:
        encoder = _ENCODERS[style]
    except KeyError:
        raise FSMError(
            f"unknown encoding style {style!r}; choose from "
            f"{sorted(_ENCODERS)}"
        ) from None
    return encoder(fsm)
