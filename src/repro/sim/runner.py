"""Session runner: drive the reader over writing scripts and score results.

The runner owns the experiment loop the paper's evaluation repeats
hundreds of times: calibrate once per deployment, then for each trial
generate a script, run inventory over it, and feed the log to the pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.events import LetterResult, StrokeObservation
from ..core.pipeline import RFIPad, RFIPadConfig
from ..motion.letters import LETTER_STROKES
from ..motion.script import WritingScript, script_for_letter, script_for_motion
from ..motion.strokes import Motion
from ..motion.user import DEFAULT_USER, UserProfile
from ..obs.metrics import get_metrics
from ..obs.trace import get_tracer
from ..rfid.reader import Reader
from ..rfid.reports import ReportLog
from .scenario import Scenario, build_scenario


@dataclass
class MotionTrial:
    """Outcome of one single-motion session.

    ``log`` is only populated when the battery ran with
    ``collect_logs=True`` (excluded from equality: two trials with the
    same outcome compare equal whether or not their logs were kept).
    """

    truth: Motion
    observed: Optional[StrokeObservation]
    log_size: int
    log: Optional[ReportLog] = field(default=None, repr=False, compare=False)

    @property
    def shape_correct(self) -> bool:
        return self.observed is not None and self.observed.kind is self.truth.kind

    @property
    def direction_correct(self) -> bool:
        if self.observed is None:
            return False
        from ..motion.strokes import StrokeKind

        if self.truth.kind is StrokeKind.CLICK:
            return True  # clicks have no direction
        return self.observed.direction is self.truth.direction

    @property
    def fully_correct(self) -> bool:
        return self.shape_correct and self.direction_correct

    @property
    def detected(self) -> bool:
        return self.observed is not None


@dataclass
class LetterTrial:
    """Outcome of one letter-writing session."""

    truth: str
    result: LetterResult
    true_stroke_intervals: List[Tuple[float, float]]
    true_stroke_tokens: Tuple[str, ...]
    log: Optional[ReportLog] = field(default=None, repr=False, compare=False)

    @property
    def correct(self) -> bool:
        return self.result.letter == self.truth


class SessionRunner:
    """Binds a scenario, its reader, and a calibrated pipeline."""

    def __init__(
        self,
        scenario: Optional[Scenario] = None,
        pipeline_config: Optional[RFIPadConfig] = None,
        calibration_duration: float = 3.0,
    ) -> None:
        self.scenario = scenario if scenario is not None else build_scenario()
        self.reader: Reader = self.scenario.make_reader()
        self.pad = RFIPad(self.scenario.layout, config=pipeline_config)
        # Kept so parallel batteries can rebuild an equivalent runner in
        # each worker process (see repro.sim.parallel).
        self._pipeline_config = pipeline_config
        self._calibration_duration = calibration_duration
        static = self.reader.collect_static(calibration_duration)
        self.pad.calibrate_from(static)
        self.static_log = static

    @property
    def rng(self) -> np.random.Generator:
        return self.scenario.rng

    def reseed(self, rng: np.random.Generator) -> None:
        """Swap in a fresh RNG stream for the next trial.

        :func:`~repro.sim.parallel.run_seeded_trial` calls this to give
        every trial an independent, position-derived stream.  Clears the
        reader's read history so trial state cannot leak across reseeds.
        """
        self.scenario.rng = rng
        self.reader.rng = rng
        self.reader.reset_read_history()

    # ------------------------------------------------------------------

    def run_script(self, script: WritingScript) -> ReportLog:
        """Collect the report stream for one session."""
        return self.reader.collect(script.duration, script.hand_pose_at)

    def run_motion(
        self,
        motion: Motion,
        user: UserProfile = DEFAULT_USER,
        speed: Optional[float] = None,
        keep_log: bool = False,
    ) -> MotionTrial:
        with get_tracer().span("trial.motion", truth=motion.label) as sp:
            script = script_for_motion(motion, self.rng, user=user, speed=speed)
            log = self.run_script(script)
            observed = self.pad.detect_motion(log)
            trial = MotionTrial(truth=motion, observed=observed, log_size=len(log))
            if keep_log:
                trial.log = log
            sp.set(
                observed=observed.label if observed is not None else None,
                correct=trial.fully_correct,
                reads=len(log),
            )
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("runner.motion_trials")
            metrics.inc("runner.motion_detected", float(trial.detected))
            metrics.inc("runner.motion_shape_correct", float(trial.shape_correct))
            metrics.inc("runner.motion_correct", float(trial.fully_correct))
        return trial

    def run_letter(
        self, letter: str, user: UserProfile = DEFAULT_USER, keep_log: bool = False
    ) -> LetterTrial:
        with get_tracer().span("trial.letter", truth=letter.upper()) as sp:
            script = script_for_letter(letter, self.rng, user=user)
            log = self.run_script(script)
            result = self.pad.recognize_letter(log)
            trial = LetterTrial(
                truth=letter.upper(),
                result=result,
                true_stroke_intervals=script.stroke_intervals(),
                true_stroke_tokens=tuple(
                    s.shape_token for s in LETTER_STROKES[letter.upper()]
                ),
            )
            if keep_log:
                trial.log = log
            sp.set(observed=result.letter, correct=trial.correct, reads=len(log))
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("runner.letter_trials")
            metrics.inc("runner.letter_correct", float(trial.correct))
        return trial

    def run_motion_battery(
        self,
        motions: Sequence[Motion],
        repeats: int,
        user: UserProfile = DEFAULT_USER,
        workers: Optional[int] = None,
        collect_logs: bool = False,
    ) -> List[MotionTrial]:
        """Run ``len(motions) * repeats`` motion trials.

        ``workers`` <= 0 (the default via :func:`~repro.sim.parallel.
        resolve_workers`) keeps the legacy serial loop, which threads this
        runner's single RNG through every trial.  ``workers`` >= 1 fans
        trials out to a process pool with per-trial seeded streams —
        deterministic in the scenario seed and independent of the worker
        count, but a *different* (equally valid) draw sequence than the
        serial loop.  Both run every trial through :meth:`run_motion`.
        ``collect_logs=True`` attaches each trial's :class:`ReportLog`
        (pickled back with the trial from workers).
        """
        return self._run_battery("motion", motions, repeats, user, workers, collect_logs)

    def run_letter_battery(
        self,
        letters: Sequence[str],
        repeats: int,
        user: UserProfile = DEFAULT_USER,
        workers: Optional[int] = None,
        collect_logs: bool = False,
    ) -> List[LetterTrial]:
        """Letter-battery counterpart of :meth:`run_motion_battery`."""
        return self._run_battery("letter", letters, repeats, user, workers, collect_logs)

    def _run_battery(
        self,
        kind: str,
        items: Sequence,
        repeats: int,
        user: UserProfile,
        workers: Optional[int],
        collect_logs: bool,
    ) -> list:
        from .parallel import resolve_workers, run_battery_parallel

        n_workers = resolve_workers(workers)
        metrics = get_metrics()
        if metrics.enabled:
            metrics.inc("runner.batteries")
            metrics.set_gauge("runner.battery_workers", float(max(n_workers, 0)))
        ordered = [item for item in items for _ in range(repeats)]
        if n_workers > 0:
            return run_battery_parallel(
                self, kind, ordered, user, n_workers, collect_logs=collect_logs
            )
        run = self.run_motion if kind == "motion" else self.run_letter
        return [run(item, user=user, keep_log=collect_logs) for item in ordered]


class WorkspaceRunner:
    """Session runner over a tiled workspace (DESIGN.md §15).

    Collects sessions like :meth:`SessionRunner.run_script`, but the
    report stream comes from the workspace's duty-cycled multiplexed
    reader, merged across tiles, and the pipeline is calibrated against
    the *combined* layout; callers recognize the log through :attr:`pad`
    and score stitching with :meth:`stitched_trajectory_error`.  For a 1x1
    workspace every log this runner produces is bit-identical to
    ``SessionRunner`` over ``build_scenario(base)``.

    ``calibration_duration`` is the static capture of a one- or two-tile
    workspace; larger workspaces capture ``tile_count / 2`` times longer,
    so every tile gets at least ``calibration_duration / 2`` of reads.
    """

    def __init__(
        self,
        workspace=None,
        pipeline_config: Optional[RFIPadConfig] = None,
        calibration_duration: float = 3.0,
    ) -> None:
        from .workspace import build_workspace

        self.workspace = workspace if workspace is not None else build_workspace()
        self.pad = RFIPad(self.workspace.combined_layout, config=pipeline_config)
        # The multiplexed reader serves one tile at a time, so each tile
        # sees only its share of the capture.  Lengthen the capture beyond
        # two tiles so that no tile gets less than a 2x1 tile's half of
        # ``calibration_duration``; 1x1 and 2x1 capture exactly that long.
        scale = max(1.0, self.workspace.tile_count / 2.0)
        static = self.workspace.collect_static(calibration_duration * scale)
        self.pad.calibrate_from(static)
        self.static_log = static

    @property
    def rng(self) -> np.random.Generator:
        return self.workspace.rng

    def run_script(self, script: WritingScript) -> ReportLog:
        """Collect the merged workspace report stream for one session."""
        return self.workspace.collect_script(script)

    def stitched_trajectory_error(
        self, log: ReportLog, script: WritingScript
    ) -> Optional[float]:
        """Fig. 25's Kinect trajectory-error metric, workspace-wide.

        Reconstructs the trajectory from the *merged* log against the
        combined layout — tags carry global indices, so anchors from
        different tiles land in one workspace frame — and scores it
        against the script's ground-truth path.  This is the stitch-
        quality number: a seam between tiles shows up directly as added
        mean xy error.  Returns None when too few troughs anchor a
        trajectory or the estimate doesn't overlap the reference.
        """
        from ..core.direction import detect_troughs
        from ..core.trajectory import reconstruct_trajectory, trajectory_error

        troughs = detect_troughs(log, self.pad.calibration)
        estimate = reconstruct_trajectory(troughs, self.workspace.combined_layout)
        if estimate is None:
            return None
        reference = [(p.t, p.position) for p in script.true_trajectory(dt=0.05)]
        try:
            return trajectory_error(estimate, reference)
        except ValueError:
            return None
