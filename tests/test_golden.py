"""Bit-identity goldens for the numpy engine and the `run` command.

The values below were recorded before the numpy fallback was rewritten to
advance the coupled pair as one array with pre-scaled noise.  Any change to
the per-step floating-point operations shows up here as a changed bit.
"""

import json

import numpy as np
import pytest

from mlgibbs import engine
from mlgibbs.cli import main
from mlgibbs.observables import coordinate
from mlgibbs.potentials import Convexity, ConvexityProfile, PotentialModel

_HEADER = (
    "method,potential,dim,sigma,epsilon,J,gamma0,T0,tau,R,seed,"
    "mean,bias,variance,rmse,mean_cost\n"
)

RUN_GOLDENS = [
    (
        {
            "potential": {"name": "quadratic", "dim": 1},
            "method": "penalized",
            "f": "coord:0",
            "epsilon": 0.3,
        },
        "penalized,quadratic,1,1.0,0.3,5,0.12088402011977692,48.958028148509655,"
        "0.0,8,3,0.015513610199346765,0.015513610199346765,0.0025180066925719275,"
        "0.0494360997391351,3450.0\n",
    ),
    (
        {
            "potential": {"name": "power", "dim": 3, "p": 0.75},
            "method": "weak_ii",
            "f": "norm2",
            "epsilon": 2.0,
        },
        "weak_ii,power,3,1.0,2.0,6,0.11111111111111112,108.11111111111111,"
        "0.0,8,3,1.3126876144042583,0.002672579514240825,0.023701904282379196,"
        "0.14403579044231243,35854.0\n",
    ),
]


@pytest.mark.parametrize("raw, row", RUN_GOLDENS, ids=["penalized-quad-d1", "weak-ii-power-d3"])
def test_run_csv_bytes(raw, row, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MLGIBBS_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(raw, sigma=1.0, replicates=8, seed=3)))
    assert main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().out == _HEADER + row


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.fixture
def aliasing_model(monkeypatch):
    """No closed form, so the numpy path runs; the gradient returns its own
    input array, and chunks of 7 steps leave a remainder chunk."""

    monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: 7)
    return PotentialModel(
        2,
        lambda x: 0.5 * np.sum(x * x, axis=-1),
        lambda x: x,
        ConvexityProfile(Convexity.STRONGLY_CONVEX, L=1.0, alpha=1.0),
        np.zeros(2),
    )


def test_coupled_diff_sums_bits(aliasing_model):
    streams = engine.make_streams(11, [0, 1, 2], 2)
    sums, ok, posf, posc = engine.coupled_diff_sums(
        aliasing_model, coordinate(1), np.array([0.5, -1.0]), 0.1, 1.0, 40, 9, streams
    )
    assert ok.all()
    assert _hex(sums) == [
        "-0x1.0c9377e4d0456p-1", "0x1.1a18ef3e2c04dp-1", "-0x1.23ea6ea3d58a9p-1",
    ]
    assert _hex(posf) == [
        "0x1.3d0e27bec74ddp-1", "0x1.95b4acd74fe34p-2", "0x1.9ffe36bd5ba08p-3",
        "-0x1.d213a7e578a2ep-1", "-0x1.f78cb15ecddd6p-2", "-0x1.2ff502b27bd21p-2",
    ]
    assert _hex(posc) == [
        "0x1.3b9ea1e1f1405p-1", "0x1.ae40df24ff144p-2", "0x1.aeab23014813ep-3",
        "-0x1.d23b08918564fp-1", "-0x1.e1360b6e01f59p-2", "-0x1.247ec3c5254bep-2",
    ]


def test_occupation_sums_bits(aliasing_model):
    streams = engine.make_streams(11, [0, 1, 2], 2)
    sums, ok, pos = engine.occupation_sums(
        aliasing_model, coordinate(1), np.array([0.5, -1.0]), 0.1, 1.0, 40, 9, streams
    )
    assert ok.all()
    assert _hex(sums) == [
        "-0x1.41e5062cf2c58p+4", "-0x1.ab3eb2ed4603fp+3", "-0x1.7167b84d747d1p+0",
    ]
    assert _hex(pos) == [
        "0x1.b20345c2e9c34p-2", "0x1.488894394440dp-1", "-0x1.ed7155ce06a70p-7",
        "-0x1.fe768a7e8d5e8p-2", "0x1.6a7c1b8804740p-7", "0x1.56ba735e5b5bcp-2",
    ]
