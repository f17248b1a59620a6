"""Property test for ``ReportLog``'s amortized column storage.

Random sequences of chunk appends (sorted and unsorted), single-row
appends and ``drop_before`` calls must leave the log equal to a reference
that concatenates everything and sorts, and every view handed out along
the way (``columns``, ``slice_time``, ``per_tag``) must keep the values it
had when it was handed out.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rfid.reports import ReportLog, TagReadReport

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("chunk"), st.integers(1, 90), st.booleans()),
        st.tuples(st.just("row"), st.integers(1, 5), st.booleans()),
        st.tuples(st.just("drop"), st.floats(0.0, 1.2), st.booleans()),
        st.tuples(st.just("view"), st.integers(0, 2), st.booleans()),
        st.tuples(st.just("child"), st.integers(1, 20), st.booleans()),
    ),
    min_size=1,
    max_size=40,
)


def _reference(rows):
    """Columns of the concatenate-everything reference, stably sorted."""
    rows = sorted(rows, key=lambda r: r[0])
    if not rows:
        return [np.empty(0)] * 7
    return [np.array([r[i] for r in rows], dtype=object if i == 6 else None) for i in range(7)]


def _snapshot(cols):
    return [np.array(c, copy=True) for c in cols]


def _same(cols, want) -> None:
    for got, ref in zip(cols, want):
        assert len(got) == len(ref)
        if len(ref):
            assert list(got) == list(ref)


@given(_ops, st.integers(0, 2**31 - 1))
@settings(max_examples=120, deadline=None)
def test_log_equals_concatenate_everything_and_views_never_change(ops, seed):
    rng = np.random.default_rng(seed)
    log = ReportLog()
    rows = []        # every live (ts, tag, phase, rss, dopp, port, epc) row
    clock = 0.0
    views = []       # (arrays handed out, their values at hand-out time)

    def fresh(n, ordered):
        nonlocal clock
        ts = clock + np.cumsum(rng.uniform(0.0, 0.02, n))
        if not ordered:
            ts = rng.permutation(ts) - 0.05
        clock = float(ts.max())
        tags = rng.integers(-1, 6, n)
        return ts, tags, rng.uniform(0, 6.28, n), rng.uniform(-60, -30, n), rng.normal(0, 1, n)

    for kind, size, flag in ops:
        if kind == "chunk":
            ts, tags, ph, rss, dopp = fresh(size, ordered=flag)
            port = 1 + size % 3
            epcs = [f"E{int(t)}" for t in tags]
            log.extend_columns(ts, tags, ph, rss, dopp, np.array(epcs, dtype=object)
                               if flag else epcs, antenna_port=port)
            rows += [(float(a), int(b), float(c), float(d), float(e), port, s)
                     for a, b, c, d, e, s in zip(ts, tags, ph, rss, dopp, epcs)]
        elif kind == "row":
            ts, tags, ph, rss, dopp = fresh(size, ordered=flag)
            for a, b, c, d, e in zip(ts, tags, ph, rss, dopp):
                log.append(TagReadReport(f"E{int(b)}", int(b), float(a), float(c),
                                         float(d), float(e), 2))
                rows.append((float(a), int(b), float(c), float(d), float(e), 2, f"E{int(b)}"))
        elif kind == "drop":
            cut = size * clock
            rows = sorted(rows, key=lambda r: r[0])
            kept = [r for r in rows if r[0] >= cut]
            assert log.drop_before(cut) == len(rows) - len(kept)
            rows = kept
        elif kind == "view":
            if size == 0:
                cols = log.columns()
            elif size == 1:
                cols = log.slice_time(clock * 0.3, clock * 0.9).columns()
            else:
                series = list(log.per_tag().values())
                cols = [s.timestamps for s in series] + [s.rss for s in series]
            views.append((cols, _snapshot(cols)))
        else:
            # A view-backed log that appends must not write into the log it views.
            child = log.slice_time(-np.inf, np.inf)
            ts, tags, ph, rss, dopp = fresh(size, ordered=True)
            clock -= float(ts.max() - ts.min()) + 1.0  # the viewed log never sees these
            child.extend_columns(ts, tags, ph, rss, dopp, ["C"] * size)
            assert len(child) == len(rows) + size
        assert len(log) == len(rows)
    _same(log.columns(), _reference(rows))
    for cols, snap in views:
        for got, want in zip(cols, snap):
            assert list(got) == list(want)
