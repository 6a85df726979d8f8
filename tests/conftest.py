"""Shared fixtures: pinned reference objects and the suite's timing guard."""

import signal

import pytest

from rdcss import (
    Collineation,
    Design,
    StageRequirement,
    cyclic_spread,
    parse_effect,
    span,
)


@pytest.fixture
def within_one_second():
    """Run call(*args); a call still running after 1 s raises TimeoutError."""

    def run(call, *args):
        def stop(signum, frame):
            raise TimeoutError(f"{call.__name__}{args} still running after 1 s")

        previous = signal.signal(signal.SIGALRM, stop)
        signal.setitimer(signal.ITIMER_REAL, 1.0)
        try:
            return call(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return run


def _rows_from_bits(bit_rows: list[tuple[int, ...]]) -> tuple[int, ...]:
    return tuple(sum(b << j for j, b in enumerate(r)) for r in bit_rows)


@pytest.fixture(scope="session")
def table2_spread():
    """The pinned 2-spread of PG(5,2) from the degree-6 default polynomial."""
    return cyclic_spread(6, 3)


@pytest.fixture(scope="session")
def reference_m6():
    """6x6 relabeling matrix known to map CDE->A, BCF->B, D->D, EF->ABC,
    AC->BDE, BF->CEF."""
    return Collineation(
        p=6,
        rows=_rows_from_bits(
            [
                (0, 0, 1, 1, 0, 1),
                (0, 0, 1, 1, 0, 0),
                (0, 1, 1, 0, 1, 1),
                (0, 0, 0, 1, 0, 0),
                (1, 1, 1, 1, 1, 1),
                (0, 0, 0, 1, 1, 1),
            ]
        ),
    )


@pytest.fixture(scope="session")
def reference_m8():
    """8x8 relabeling matrix for the double-space route at p=7, t1=4."""
    return Collineation(
        p=8,
        rows=_rows_from_bits(
            [
                (1, 1, 1, 1, 1, 1, 1, 0),
                (0, 1, 0, 0, 1, 1, 0, 0),
                (1, 0, 1, 1, 1, 0, 1, 0),
                (1, 1, 1, 0, 1, 0, 0, 1),
                (0, 1, 0, 1, 0, 1, 1, 1),
                (0, 1, 1, 1, 1, 1, 0, 0),
                (0, 1, 0, 0, 0, 1, 1, 1),
                (1, 0, 0, 0, 0, 0, 0, 0),
            ]
        ),
    )


@pytest.fixture(scope="session")
def blocked_splitlot_requirements():
    """Three-stage request: one exact blocked subspace, two split-lot stages."""
    return [
        StageRequirement(
            tuple(parse_effect(w, 6) for w in ("ABC", "BDE", "CEF")), exact=True
        ),
        StageRequirement(tuple(parse_effect(w, 6) for w in ("A", "B"))),
        StageRequirement((parse_effect("D", 6),)),
    ]


@pytest.fixture(scope="session")
def splitplot_design():
    """2^5 split-plot: one stage holding A and B between whole-plot batches."""
    return Design(p=5, stages=(span(tuple(parse_effect(w, 5) for w in "AB")),))


@pytest.fixture(scope="session")
def two_stage_design():
    """2^5 split-lot with stages <A,B> and <C,D,E>."""
    return Design(
        p=5,
        stages=(
            span(tuple(parse_effect(w, 5) for w in "AB")),
            span(tuple(parse_effect(w, 5) for w in "CDE")),
        ),
    )
