from __future__ import annotations

from pathlib import Path

import pytest

from sigdom.graphs import stream_graph6

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


def load_corpus(name: str):
    path = DATA_DIR / name
    with path.open() as handle:
        return [g for _, g in stream_graph6(handle, source=name)]


@pytest.fixture(scope="session")
def connected_upto8():
    return load_corpus("connected_upto8.g6")


@pytest.fixture(scope="session")
def cubic_upto10():
    return load_corpus("cubic_upto10.g6")


@pytest.fixture(scope="session")
def quartic_5to9():
    return load_corpus("quartic_5to9.g6")
