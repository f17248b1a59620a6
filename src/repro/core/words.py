"""Word-level input — the paper's stated future work.

Section III-C.2: "For current implementation we only focus on recognizing
individual letter.  We will leave the recognition of a succession of
letters as our future work."  This module supplies that layer:

* **letter segmentation**: people pause longer between letters than
  between strokes; stroke windows are clustered into letters by the gap
  between consecutive windows (inter-stroke gaps ~0.9 s, inter-letter
  gaps ≥ ``letter_gap_s``);
* **per-letter recognition**: any recogniser with the
  ``recognize(strokes, windows)`` interface (grammar, holistic, hybrid);
* **lexicon correction**: a noisy-channel decoder over the per-letter
  candidate rankings, which absorbs individual letter errors exactly the
  way the kiosk scenario needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from .events import LetterResult, SegmentedWindow


def cluster_windows_into_letters(
    windows: Sequence[SegmentedWindow], letter_gap_s: float = 1.3
) -> List[List[SegmentedWindow]]:
    """Group stroke windows into letters by inter-window gap.

    >>> from repro.core.events import SegmentedWindow as W
    >>> groups = cluster_windows_into_letters(
    ...     [W(0, 1, 1), W(1.9, 2.9, 1), W(5.5, 6.5, 1)], letter_gap_s=1.6)
    >>> [len(g) for g in groups]
    [2, 1]
    """
    groups: List[List[SegmentedWindow]] = []
    for w in sorted(windows, key=lambda w: w.t0):
        if groups and w.t0 - groups[-1][-1].t1 < letter_gap_s:
            groups[-1].append(w)
        else:
            groups.append([w])
    return groups


@dataclass(frozen=True)
class WordResult:
    """The decoded word plus its per-letter evidence."""

    raw: str                                  # best per-letter reading ('?' = none)
    corrected: Optional[str]                  # lexicon decode (None without lexicon hit)
    letters: Tuple[LetterResult, ...]

    @property
    def text(self) -> str:
        return self.corrected if self.corrected is not None else self.raw


@dataclass
class WordDecoder:
    """Noisy-channel word decoding over per-letter candidate rankings.

    ``miss_cost`` charges a word letter that never appears among a
    position's candidates; ``accept_margin`` requires the best lexicon
    word to beat the runner-up by that much, otherwise the raw reading is
    kept (no overconfident corrections).
    """

    lexicon: Sequence[str] = ()
    miss_cost: float = 2.0
    accept_margin: float = 0.0

    def _letter_cost(self, candidates: Sequence[Tuple[str, float]], letter: str) -> float:
        best_score = None
        for cand, score in candidates:
            if cand == letter:
                best_score = score
                break
        if best_score is None:
            return self.miss_cost
        return float(best_score)

    def decode(self, letters: Sequence[LetterResult]) -> WordResult:
        raw = "".join(l.letter if l.letter is not None else "?" for l in letters)
        if not self.lexicon or not letters:
            return WordResult(raw=raw, corrected=None, letters=tuple(letters))

        scored: List[Tuple[str, float]] = []
        for word in self.lexicon:
            if len(word) != len(letters):
                continue
            cost = sum(
                self._letter_cost(l.candidates, ch)
                for l, ch in zip(letters, word.upper())
            )
            scored.append((word.upper(), cost))
        if not scored:
            return WordResult(raw=raw, corrected=None, letters=tuple(letters))
        scored.sort(key=lambda pair: pair[1])
        if len(scored) >= 2 and scored[1][1] - scored[0][1] < self.accept_margin:
            return WordResult(raw=raw, corrected=None, letters=tuple(letters))
        return WordResult(raw=raw, corrected=scored[0][0], letters=tuple(letters))


@dataclass
class WordRecognizer:
    """Session log -> word, built on any per-letter recogniser.

    The pad supplies segmentation and per-stroke analysis; this object
    owns only the letter clustering and the lexicon decode, so it composes
    with :class:`~repro.core.pipeline.RFIPad` without subclassing.
    """

    pad: "RFIPad"  # noqa: F821  (forward ref; avoids an import cycle)
    decoder: WordDecoder = field(default_factory=WordDecoder)
    letter_gap_s: float = 1.3

    def recognize_word(self, log) -> WordResult:
        windows = self.pad.segment(log)
        letters: List[LetterResult] = []
        for group in cluster_windows_into_letters(windows, self.letter_gap_s):
            strokes = []
            for w in group:
                obs = self.pad.analyze_window(log, w.t0, w.t1)
                if obs is not None:
                    strokes.append(obs)
            letters.append(self.pad.grammar.recognize(strokes, group))
        return self.decoder.decode(letters)
