"""Letter decomposition: the tree-structure grammar's source data.

Each capital letter is a sequence of stroke specs positioned in a unit
letter box ([0,1]^2, y up), following the handwriting decomposition of
Agrawal et al. ("Using Mobile Phones to Write in Air", MobiSys 2011) that
the paper adopts (Fig. 10).  Stroke counts match the paper's grouping in
Fig. 23:

* 1 stroke:  C, I
* 2 strokes: D, J, L, O, P, S, T, V, X
* 3 strokes: A, B, F, G, H, K, N, Q, R, U, Y, Z
* 4 strokes: E, M, W

Letters sharing a stroke *sequence* (D/P, O/S, V/X) are distinguished by
stroke positions (section III-C.2): e.g. D's "⊃" spans the full height of
its "|", P's only the top half.  The spec anchors carry exactly that
information.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .strokes import ArcOpening, Direction, StrokeKind


@dataclass(frozen=True)
class StrokeSpec:
    """One stroke of a letter, in unit letter-box coordinates (y up)."""

    kind: StrokeKind
    start: Tuple[float, float]
    end: Tuple[float, float]
    opening: Optional[ArcOpening] = None
    direction: Direction = Direction.FORWARD

    @property
    def shape_token(self) -> str:
        """Grammar token: stroke kind, with arcs qualified by opening."""
        if self.kind in (StrokeKind.ARC_C, StrokeKind.ARC_D) or self.opening is not None:
            op = self.opening
            if op is None:
                op = ArcOpening.RIGHT if self.kind is StrokeKind.ARC_C else ArcOpening.LEFT
            return f"arc:{op.value}"
        return self.kind.name.lower()


def _line(kind: StrokeKind, start, end) -> StrokeSpec:
    return StrokeSpec(kind, start, end)


def _arc(opening: ArcOpening, start, end) -> StrokeSpec:
    kind = StrokeKind.ARC_C if opening is ArcOpening.RIGHT else StrokeKind.ARC_D
    return StrokeSpec(kind, start, end, opening=opening)


H, V, S_, B_ = StrokeKind.HBAR, StrokeKind.VBAR, StrokeKind.SLASH, StrokeKind.BACKSLASH
R_, L_, U_, D_ = ArcOpening.RIGHT, ArcOpening.LEFT, ArcOpening.UP, ArcOpening.DOWN


#: The full alphabet decomposition.  Order of strokes is writing order.
LETTER_STROKES: Dict[str, Tuple[StrokeSpec, ...]] = {
    # -------- 1 stroke --------
    "C": (_arc(R_, (0.80, 0.85), (0.80, 0.15)),),
    "I": (_line(V, (0.50, 0.95), (0.50, 0.05)),),
    # -------- 2 strokes --------
    "D": (
        _line(V, (0.30, 0.95), (0.30, 0.05)),
        _arc(L_, (0.30, 0.95), (0.30, 0.05)),
    ),
    "J": (
        _line(V, (0.62, 0.95), (0.62, 0.35)),
        _arc(U_, (0.62, 0.35), (0.18, 0.42)),
    ),
    "L": (
        _line(V, (0.30, 0.95), (0.30, 0.05)),
        _line(H, (0.30, 0.05), (0.80, 0.05)),
    ),
    "O": (
        _arc(R_, (0.50, 0.95), (0.50, 0.05)),
        _arc(L_, (0.50, 0.95), (0.50, 0.05)),
    ),
    "P": (
        _line(V, (0.30, 0.95), (0.30, 0.05)),
        _arc(L_, (0.30, 0.95), (0.30, 0.50)),
    ),
    "S": (
        _arc(R_, (0.78, 0.90), (0.50, 0.50)),
        _arc(L_, (0.50, 0.50), (0.22, 0.10)),
    ),
    "T": (
        _line(H, (0.15, 0.95), (0.85, 0.95)),
        _line(V, (0.50, 0.95), (0.50, 0.05)),
    ),
    "V": (
        _line(B_, (0.20, 0.95), (0.50, 0.05)),
        _line(S_, (0.50, 0.05), (0.80, 0.95)),
    ),
    "X": (
        _line(B_, (0.20, 0.95), (0.80, 0.05)),
        _line(S_, (0.20, 0.05), (0.80, 0.95)),
    ),
    # -------- 3 strokes --------
    "A": (
        _line(S_, (0.20, 0.05), (0.50, 0.95)),
        _line(B_, (0.50, 0.95), (0.80, 0.05)),
        _line(H, (0.33, 0.40), (0.67, 0.40)),
    ),
    "B": (
        _line(V, (0.30, 0.95), (0.30, 0.05)),
        _arc(L_, (0.30, 0.95), (0.30, 0.50)),
        _arc(L_, (0.30, 0.50), (0.30, 0.05)),
    ),
    "F": (
        _line(V, (0.30, 0.95), (0.30, 0.05)),
        _line(H, (0.30, 0.95), (0.80, 0.95)),
        _line(H, (0.30, 0.55), (0.72, 0.55)),
    ),
    "G": (
        _arc(R_, (0.80, 0.85), (0.80, 0.20)),
        _line(H, (0.40, 0.45), (0.85, 0.45)),
        _line(V, (0.85, 0.50), (0.85, 0.05)),
    ),
    "H": (
        _line(V, (0.25, 0.95), (0.25, 0.05)),
        _line(H, (0.25, 0.50), (0.75, 0.50)),
        _line(V, (0.75, 0.95), (0.75, 0.05)),
    ),
    "K": (
        _line(V, (0.30, 0.95), (0.30, 0.05)),
        _line(S_, (0.30, 0.50), (0.78, 0.95), ),
        _line(B_, (0.30, 0.50), (0.78, 0.05)),
    ),
    "N": (
        _line(V, (0.25, 0.95), (0.25, 0.05)),
        _line(B_, (0.25, 0.95), (0.75, 0.05)),
        _line(V, (0.75, 0.05), (0.75, 0.95), ),
    ),
    "Q": (
        _arc(R_, (0.50, 0.95), (0.50, 0.08)),
        _arc(L_, (0.50, 0.95), (0.50, 0.08)),
        _line(B_, (0.52, 0.42), (0.95, 0.00)),
    ),
    "R": (
        _line(V, (0.30, 0.95), (0.30, 0.05)),
        _arc(L_, (0.30, 0.95), (0.30, 0.50)),
        _line(B_, (0.35, 0.50), (0.78, 0.05)),
    ),
    "U": (
        _line(V, (0.25, 0.95), (0.25, 0.30)),
        _arc(U_, (0.25, 0.30), (0.75, 0.30)),
        _line(V, (0.75, 0.30), (0.75, 0.95), ),
    ),
    "Y": (
        _line(B_, (0.20, 0.95), (0.50, 0.52)),
        _line(S_, (0.50, 0.52), (0.80, 0.95), ),
        _line(V, (0.50, 0.52), (0.50, 0.05)),
    ),
    "Z": (
        _line(H, (0.18, 0.95), (0.82, 0.95)),
        _line(S_, (0.82, 0.95), (0.18, 0.05), ),
        _line(H, (0.18, 0.05), (0.82, 0.05)),
    ),
    # -------- 4 strokes --------
    "E": (
        _line(V, (0.30, 0.95), (0.30, 0.05)),
        _line(H, (0.30, 0.95), (0.80, 0.95)),
        _line(H, (0.30, 0.50), (0.72, 0.50)),
        _line(H, (0.30, 0.05), (0.80, 0.05)),
    ),
    "M": (
        _line(V, (0.18, 0.05), (0.18, 0.95), ),
        _line(B_, (0.18, 0.95), (0.50, 0.35)),
        _line(S_, (0.50, 0.35), (0.82, 0.95), ),
        _line(V, (0.82, 0.95), (0.82, 0.05)),
    ),
    "W": (
        _line(B_, (0.12, 0.95), (0.34, 0.05)),
        _line(S_, (0.34, 0.05), (0.50, 0.60), ),
        _line(B_, (0.50, 0.60), (0.66, 0.05)),
        _line(S_, (0.66, 0.05), (0.88, 0.95), ),
    ),
}


ALPHABET: str = "".join(sorted(LETTER_STROKES))


def stroke_count(letter: str) -> int:
    """Number of strokes in a letter's decomposition."""
    return len(LETTER_STROKES[letter.upper()])


def letters_by_stroke_count() -> Dict[int, List[str]]:
    """The four groups of Fig. 23, keyed by stroke count."""
    groups: Dict[int, List[str]] = {}
    for letter, strokes in LETTER_STROKES.items():
        groups.setdefault(len(strokes), []).append(letter)
    for v in groups.values():
        v.sort()
    return groups


def shape_sequence(letter: str) -> Tuple[str, ...]:
    """The grammar token sequence of a letter (writing order)."""
    return tuple(spec.shape_token for spec in LETTER_STROKES[letter.upper()])


def ambiguous_groups() -> List[List[str]]:
    """Sets of letters sharing an identical token sequence (need positions)."""
    by_seq: Dict[Tuple[str, ...], List[str]] = {}
    for letter in LETTER_STROKES:
        by_seq.setdefault(shape_sequence(letter), []).append(letter)
    return sorted([sorted(v) for v in by_seq.values() if len(v) > 1])


def validate_grouping() -> None:
    """Assert the decomposition matches the paper's Fig. 23 groups."""
    groups = letters_by_stroke_count()
    expected = {
        1: ["C", "I"],
        2: ["D", "J", "L", "O", "P", "S", "T", "V", "X"],
        3: ["A", "B", "F", "G", "H", "K", "N", "Q", "R", "U", "Y", "Z"],
        4: ["E", "M", "W"],
    }
    if groups != expected:
        raise AssertionError(f"letter grouping drifted from the paper: {groups}")
