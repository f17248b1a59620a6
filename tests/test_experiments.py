"""Tests of the experiment framework plus smoke runs of the cheap ones.

The full fast-mode suite is exercised by the benchmarks; here we verify the
registry covers every paper artefact, result formatting works, and the
analytically-cheap experiments meet their expectations.
"""

import pytest

from repro.experiments import ALL_EXPERIMENTS, ExperimentResult, run_experiment

PAPER_ARTEFACTS = {
    "fig02", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09",
    "fig11", "fig12", "fig13", "fig16", "fig17", "fig18", "fig19",
    "fig20", "fig21", "fig22", "fig23", "fig24", "fig25", "tab1",
}

ABLATIONS = {"abl_weighting", "abl_otsu", "abl_window", "abl_direction"}
EXTENSIONS = {
    "ext_speed", "ext_hover", "ext_holistic", "ext_words", "ext_multipad",
    "ext_tracking",
}


def test_registry_covers_every_artefact():
    assert set(ALL_EXPERIMENTS) == PAPER_ARTEFACTS | ABLATIONS | EXTENSIONS


def test_unknown_experiment_rejected():
    with pytest.raises(KeyError):
        run_experiment("fig99")


@pytest.mark.parametrize("eid", ["fig06", "fig11", "fig12", "fig13"])
def test_cheap_experiments_meet_expectations(eid):
    result = run_experiment(eid)
    assert isinstance(result, ExperimentResult)
    assert result.rows
    assert result.expectation_met is True


def test_result_to_text_renders_all_rows():
    result = run_experiment("fig13")
    text = result.to_text()
    assert result.experiment_id in text
    assert "expectation" in text
    assert len(text.splitlines()) >= len(result.rows)


def test_result_column_access():
    result = run_experiment("fig12")
    drops = result.column("target_rss_drop_db")
    assert len(drops) == len(result.rows)


def test_experiments_are_deterministic():
    a = run_experiment("fig12")
    b = run_experiment("fig12")
    assert a.rows == b.rows
