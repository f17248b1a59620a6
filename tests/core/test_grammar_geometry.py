"""The grammar's static letter geometry and its once-per-call observed
geometry leave every candidate score as the public scorer gives it."""

import dataclasses
import math

import pytest

from repro.core.grammar import StrokeGeometry, TreeGrammar, letter_geometry
from repro.motion.letters import LETTER_STROKES
from repro.motion.script import script_for_letter
from repro.sim.runner import SessionRunner
from repro.sim.scenario import ScenarioConfig, build_scenario


@pytest.fixture(scope="module")
def letter_strokes():
    # A fresh runner on the shared seed-7 deployment, so the shared
    # runner's RNG stream is untouched.
    runner = SessionRunner(build_scenario(ScenarioConfig(seed=7)))
    out = []
    for letter in "DPOSVXEK":
        log = runner.run_script(script_for_letter(letter, runner.rng))
        out.append(list(runner.pad.recognize_letter(log).strokes))
    return out


def _ranked_by_score_letter(grammar, strokes):
    scored = [(letter, grammar.score_letter(letter, strokes)) for letter in LETTER_STROKES]
    return tuple(sorted((p for p in scored if math.isfinite(p[1])), key=lambda p: p[1])[:5])


def test_recognize_candidates_are_the_top_five_score_letter_ranks(letter_strokes):
    grammar = TreeGrammar()
    featureless = dataclasses.replace(letter_strokes[0][0], features=None)
    cases = [s for s in letter_strokes if s]
    cases += [[featureless], cases[0][:-1] + [featureless]]
    assert len(cases) >= 8
    for strokes in cases:
        result = grammar.recognize(strokes)
        assert result.candidates == _ranked_by_score_letter(grammar, strokes)
        assert result.candidates


def test_letter_geometry_is_fresh_on_every_call():
    first = letter_geometry("D")
    second = letter_geometry("D")
    assert first == second
    assert first is not second
    first[0] = StrokeGeometry(0.0, 0.0, 0.0, 0.0)
    first.append(StrokeGeometry(1.0, 1.0, 1.0, 1.0))
    assert letter_geometry("D") == second
    assert letter_geometry("d") == second
