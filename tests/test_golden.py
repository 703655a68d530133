"""Bit-identity goldens for the numpy engine and the `run` and `calibrate` commands.

The driver values were recorded before the numpy fallback was rewritten to
advance the coupled pair as one array with pre-scaled noise, the series values
before the series helpers joined the blocked step loop, the oracle values
before the quadratures shared one weight and one ratio routine, the calibrate
plans and constants before calibration decided each rule in one place, the
row-sum goldens before every |x|^2 row sum went through one helper.  Any
change to the floating-point operations shows up here as a changed bit.
"""

import json
import warnings

import numpy as np
import pytest

from mlgibbs import diagnostics, engine
from mlgibbs.calibration import (
    complexity_bound_penalized,
    complexity_bound_weak,
    regime_constants,
    step_bound,
)
from mlgibbs.cli import main
from mlgibbs.diagnostics import (
    ReferenceValue,
    _radial_moment,
    confluence_curve,
    decreasing_penalization_probe,
    fourth_moment_reference,
    moment_envelope_check,
    reference_for,
    reference_moment,
    strong_error_curve,
    w1_distance_1d,
)
from mlgibbs.observables import coordinate, euclidean_norm, fourth_norm, squared_norm
from mlgibbs.potentials import (
    Convexity,
    ConvexityProfile,
    PotentialModel,
    make_power,
    make_quadratic,
    penalize,
)

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
    # Seed 7, recorded before make_quadratic dropped its subtraction for a
    # center of +0.0 and its multiply for a scale of 1.0: one config per side
    # of that rule.  A scale of 2.0 keeps the multiply alone; a center of -0.0
    # keeps the subtraction; the unpenalized default quadratic drops both.
    (
        {
            "potential": {"name": "quadratic", "dim": 2, "scale": 2.0},
            "method": "penalized",
            "f": "coord:0",
            "epsilon": 0.3,
            "seed": 7,
        },
        "penalized,quadratic,2,1.0,0.3,6,0.05228718065142609,91.08426869478424,"
        "0.0,8,7,0.01900293088609064,0.01900293088609064,0.0017456501922191363,"
        "0.04345751143879826,17420.0\n",
    ),
    (
        {
            "potential": {"name": "quadratic", "dim": 1, "center": -0.0},
            "method": "penalized",
            "f": "coord:0",
            "epsilon": 0.3,
            "seed": 7,
        },
        "penalized,quadratic,1,1.0,0.3,5,0.12088402011977692,48.958028148509655,"
        "0.0,8,7,-0.02833619779773989,-0.02833619779773989,0.004469933142268498,"
        "0.06865953397101945,3450.0\n",
    ),
    (
        {
            "potential": {"name": "quadratic", "dim": 1},
            "method": "single_level",
            "f": "coord:0",
            "epsilon": 0.1,
            "seed": 7,
        },
        "single_level,quadratic,1,1.0,0.1,0,0.1,230.3,0.0,8,7,0.014063673441496383,"
        "0.014063673441496383,0.006354507589337873,0.07588136168611953,2303.0\n",
    ),
]


@pytest.mark.parametrize(
    "raw, row",
    RUN_GOLDENS,
    ids=[
        "penalized-quad-d1",
        "weak-ii-power-d3",
        "penalized-quad-d2-scale2",
        "penalized-quad-d1-center-neg0",
        "single-level-quad-d1",
    ],
)
def test_run_csv_bytes(raw, row, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MLGIBBS_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict({"sigma": 1.0, "replicates": 8, "seed": 3}, **raw)))
    assert main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().out == _HEADER + row


# The benchmark's two workloads at their pinned configs (perfbench/run.py) and
# seed 7, recorded before the quadratic drift subtracted a scalar center as
# one float and the ridge gradient was built in one array.
BENCHMARK_RUN_GOLDENS = [
    (
        {
            "potential": {"name": "quadratic", "dim": 1},
            "method": "penalized", "sigma": 1.0, "epsilon": 0.18,
            "f": "coord:0", "replicates": 100,
        },
        "penalized,quadratic,1,1.0,0.18,8,0.10370607524476888,404.8685177555777,"
        "0.0,100,7,0.005367213639317739,0.005367213639317739,0.0011625562938285176,"
        "0.0343473101296202,50752.0\n",
    ),
    (
        {
            "potential": {"name": "power", "dim": 3, "p": 0.75},
            "method": "weak_ii", "sigma": 1.0, "epsilon": 2.0,
            "f": "norm2", "replicates": 100,
        },
        "weak_ii,power,3,1.0,2.0,6,0.11111111111111112,108.11111111111111,"
        "0.0,100,7,1.3082838384363313,-0.0017311964536861346,0.011625942558154233,"
        "0.10729715827427092,35854.0\n",
    ),
]


@pytest.mark.parametrize(
    "raw, row", BENCHMARK_RUN_GOLDENS, ids=["penalized-quad-d1", "weak-ii-power-d3"]
)
def test_benchmark_workload_csv_bytes(raw, row, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MLGIBBS_SEED", raising=False)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(raw, seed=7)))
    assert main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().out == _HEADER + row


# Row-sum goldens, recorded before every |x|^2 row sum went through
# potentials._sum_sq: d = 8 takes its pairwise branch, and the norm observable
# of a shifted quadratic its column-sum branch.  The shifted norm has no
# closed form or radial quadrature, so its long-run oracle is replaced by a
# constant; the mean and variance columns come from the engine alone.
ROW_SUM_RUN_GOLDENS = [
    (
        {
            "potential": {"name": "power", "dim": 8, "p": 0.75},
            "method": "weak_ii",
            "f": "norm2",
            "epsilon": 4.0,
        },
        "weak_ii,power,8,1.0,4.0,8,0.11111111111111112,208.55555555555557,"
        "0.0,8,3,4.0220458172714935,-0.11244629438748444,0.016771647629237045,"
        "0.1652856944719034,146072.0\n",
    ),
    (
        {
            "potential": {"name": "quadratic", "dim": 2, "center": [0.5, -1.0]},
            "method": "penalized",
            "f": "norm",
            "epsilon": 0.5,
        },
        "penalized,quadratic,2,1.0,0.5,8,0.09491415700295097,161.35406690501665,"
        "0.0,8,3,1.0785791940780483,-0.17142080592195175,0.0026578452414491825,"
        "0.17807500467274867,22100.0\n",
    ),
]


@pytest.mark.parametrize("raw, row", ROW_SUM_RUN_GOLDENS, ids=["power-d8-norm2", "quad-center-norm"])
def test_run_csv_row_sum_bytes(raw, row, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MLGIBBS_SEED", raising=False)
    monkeypatch.setattr(
        diagnostics, "long_run_reference",
        lambda model, f, sigma, seed: ReferenceValue(1.25, "long_run_oracle", 0.0),
    )
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(raw, sigma=1.0, replicates=8, seed=3)))
    assert main(["run", "--config", str(path)]) == 0
    assert capsys.readouterr().out == _HEADER + row


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


@pytest.fixture
def chunk7(monkeypatch):
    """Chunks of 7 steps, so a run leaves a remainder chunk."""
    monkeypatch.setattr(engine, "_chunk_steps", lambda R, d: 7)


@pytest.fixture
def aliasing_model(chunk7):
    """No closed form; the gradient returns its own input array."""
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


# Series goldens, recorded before the series helpers joined the blocked step
# loop: 67 steps, so the last 64-step block and the last 7-step chunk are
# partial, and 10 lanes, so the lane means go past numpy's 8-way unrolled sum.
CONFLUENCE_HEX = [
    "0x1.6000000000000p+1", "0x1.0da5fed5295e2p+1", "0x1.a02743b5f3c02p+0",
    "0x1.3ff431c078fe4p+0", "0x1.ed05fbefa042ep-1", "0x1.7c74750b5d508p-1",
    "0x1.2931da8673168p-1", "0x1.cec9374b02e4dp-2", "0x1.68d3fa3c9c212p-2",
    "0x1.154f8e643d18dp-2", "0x1.a999d666da946p-3", "0x1.4948e9f9cf566p-3",
    "0x1.02303541dd982p-3", "0x1.9141090794a65p-4", "0x1.331dc397d8532p-4",
    "0x1.d32ecafccc1eap-5", "0x1.67d9841ef046ep-5", "0x1.12d51479b2791p-5",
    "0x1.a78402bbe4df5p-6", "0x1.49d2c76736dffp-6", "0x1.01929bdddb946p-6",
    "0x1.932c2233ed05bp-7", "0x1.3bcf4d2aee6fep-7", "0x1.f61aca77cbabap-8",
    "0x1.8f9cab47bbd4ep-8", "0x1.3df1282a1c27ap-8", "0x1.f8daf6d6f7403p-9",
    "0x1.912cb2830d775p-9", "0x1.3e99a2d685e67p-9", "0x1.fe78fb1fd1a96p-10",
    "0x1.9b627d834d225p-10", "0x1.4c3ec1bbb5c2ap-10", "0x1.0cd81d80c7e27p-10",
    "0x1.b4e8c249e73c5p-11", "0x1.613666c6e4863p-11", "0x1.225d32c30c76ep-11",
    "0x1.d49becd7f1332p-12", "0x1.79af3a451756ap-12", "0x1.321bcbd39d99ap-12",
    "0x1.eb7dac04d7f78p-13", "0x1.8813787e9f750p-13", "0x1.34d4e480be494p-13",
    "0x1.edc88fa9283ddp-14", "0x1.8d51823404cdcp-14", "0x1.401bd66c68a5fp-14",
    "0x1.0428f2d6c81ffp-14", "0x1.a471dcaf55aabp-15", "0x1.554c9f5864cf7p-15",
    "0x1.169c67f100abcp-15", "0x1.c63bf3ec6b020p-16", "0x1.6cbcbaf1649c9p-16",
    "0x1.1d94f070bd06dp-16", "0x1.c8da64c1e2455p-17", "0x1.7bf8ea2ca9494p-17",
    "0x1.34ca4f2da8962p-17", "0x1.e6c6f4d52743ep-18", "0x1.7a7a39aa0d0e2p-18",
    "0x1.2927870bd61ffp-18", "0x1.c7b6c74b33823p-19", "0x1.6367534e39543p-19",
    "0x1.18e2c081ac6b0p-19", "0x1.be21e6ea68f6ep-20", "0x1.65340953975a2p-20",
    "0x1.1b0b058dbc550p-20", "0x1.ce21e8003ee88p-21", "0x1.7b330d661aa1dp-21",
    "0x1.37dc56aa19e28p-21", "0x1.f4f8dd966e942p-22",
]
MOMENTS_HEX = [
    "0x1.c21fda76b76a3p+1", "0x1.2082282518d62p+2", "0x1.ca485ba0fde3ap+1",
    "0x1.c97ad01461886p+1", "0x1.e29b730cf3382p+1", "0x1.207632ba55705p+2",
    "0x1.118f94c390bd1p+2", "0x1.199723c23cf5cp+2", "0x1.dec767f570893p+1",
    "0x1.f394031833cddp+1", "0x1.b34c0baf5ec83p+1", "0x1.03d2e21f8d6fap+2",
    "0x1.c0f2375938ac6p+1", "0x1.6bd376185a36dp+1", "0x1.48d0bd7e6a8fbp+1",
    "0x1.96db148caa5f1p+1", "0x1.ad4745f93c822p+1", "0x1.e5f7071fe0d06p+1",
    "0x1.ec58417d652c6p+1", "0x1.140b7fe553652p+2", "0x1.a2d2435e629bdp+1",
    "0x1.bdc5dfe8f1282p+1", "0x1.1ad98e0833283p+2", "0x1.19fbe3d43eed7p+2",
    "0x1.f740e80cfec9dp+1", "0x1.01c855c09679ap+2", "0x1.0b075682c447cp+2",
    "0x1.04528e9701c8bp+2", "0x1.d890700a7e88bp+1", "0x1.3d62f19b3a4b6p+2",
    "0x1.57e24f686f685p+2", "0x1.7b00f2cc11a21p+2", "0x1.934b55dbfc4afp+2",
    "0x1.5686883547445p+2", "0x1.601dc926ecc37p+2", "0x1.54aec4616884ap+2",
    "0x1.44437e4e0235fp+2", "0x1.814d2edbdd78bp+2", "0x1.49fc4e9281159p+2",
    "0x1.4a7dec6d68892p+2", "0x1.eb379da4b702ap+1", "0x1.4717d0c202041p+2",
    "0x1.359a75a37dd78p+2", "0x1.219c34b6d9ef5p+2", "0x1.ff37e8d853166p+1",
    "0x1.c1f94e584dcabp+1", "0x1.0827955c0580ap+2", "0x1.b8a624fb3327ap+1",
    "0x1.ad87d7d0ec2e5p+1", "0x1.55d53aec5d872p+1", "0x1.5c6396b011f1dp+1",
    "0x1.838bd4c5332e0p+1", "0x1.15b0752da9f59p+2", "0x1.a60d3a795e12ap+1",
    "0x1.778226ef31820p+1", "0x1.510699507ee70p+1", "0x1.bb9e9acdfc50dp+1",
    "0x1.d8f7aa4feebc3p+1", "0x1.1d6e2eb0545e2p+2", "0x1.1a0e3114e7119p+2",
    "0x1.5c8bb0c7fbca3p+2", "0x1.6b548e3f4a7eap+2", "0x1.5274b1e7efbd2p+2",
    "0x1.87385f7eb0dfdp+2", "0x1.b1f3b92ceb42bp+2", "0x1.7c26121f3c262p+2",
    "0x1.11eb04abfdcd2p+2", "0x1.0b35c86845412p+2",
]
PROBE_HEX = [
    "0x1.2000000000000p+2", "0x1.c5b0a3d70a3d6p+1", "0x1.6324f02d1e77ap+1",
    "0x1.1674b37fd48c8p+1", "0x1.b05bd0cf48743p+0", "0x1.4e8ccb0c9ab61p+0",
    "0x1.0047da5397c8ep+0", "0x1.87f624a9517c4p-1", "0x1.2c2a3c849ad89p-1",
    "0x1.c8edd89bd96f6p-2", "0x1.643fd9ea6cf2ap-2", "0x1.16e51cfb5c612p-2",
    "0x1.ba0c7ca1d3b0ap-3", "0x1.64acd9029bb9ap-3", "0x1.217e5cc54315bp-3",
    "0x1.cea6e45857693p-4", "0x1.7a34283e6a6d9p-4", "0x1.3b4d4e9e699f9p-4",
    "0x1.0ba9281714da6p-4", "0x1.d77bac189ae48p-5", "0x1.a45e53dd738c2p-5",
    "0x1.7b1d2be607760p-5", "0x1.59a469235bb13p-5", "0x1.4ea4a5928b80ap-5",
    "0x1.504f17ecef75ap-5", "0x1.581b967aa705cp-5", "0x1.634754a9032f2p-5",
    "0x1.5a416435df6ddp-5", "0x1.5b29e93e754a2p-5", "0x1.5f775365a168ep-5",
    "0x1.4a4a2c4e9e1dap-5", "0x1.3195b02cceaf3p-5", "0x1.2064c271cfea0p-5",
    "0x1.1dd4efd3ee089p-5", "0x1.27ebde817f354p-5", "0x1.3671e36289026p-5",
    "0x1.4eacc5111995dp-5", "0x1.5c56be37451fap-5", "0x1.603da81b0c26ap-5",
    "0x1.6ed70ae61eb8ap-5", "0x1.8323cd02b3815p-5", "0x1.96a2406ca8cf6p-5",
    "0x1.a48b6d56737f0p-5", "0x1.adb6e71c108fdp-5", "0x1.abf266407fc5dp-5",
    "0x1.9fd9555360e5ap-5", "0x1.99789db8a5386p-5", "0x1.884b22474f7cfp-5",
    "0x1.81e08a7a9c7f5p-5", "0x1.787b3d79787f2p-5", "0x1.7269da5a6b415p-5",
    "0x1.6d69f07dfebc1p-5", "0x1.5a4265c600fadp-5", "0x1.472fc643d6775p-5",
    "0x1.2def056aa2efap-5", "0x1.1fb5c13b7cd37p-5", "0x1.1b2f55079dc8fp-5",
    "0x1.1a829b9735b6fp-5", "0x1.2a622fb1eeba8p-5", "0x1.427365a6c2a08p-5",
    "0x1.4d2f63bca9080p-5", "0x1.44ac488157d61p-5", "0x1.4b758dea49fa2p-5",
    "0x1.5e3a5a6e34a30p-5", "0x1.6be18727961afp-5", "0x1.6ad868f99d130p-5",
    "0x1.6be505792f057p-5", "0x1.75d67fcc8f1bdp-5",
]
PAIR_FINAL_HEX = [
    "0x1.9963adb1e53eap-2", "-0x1.5ffb7208ec6d8p-3",
    "0x1.0a8c74de4c56bp+0", "-0x1.0171a061e4e38p-1",
    "-0x1.e0609bd4ff978p-6", "0x1.000789a5f7d34p-4",
    "0x1.b150f4edfcb53p-2", "-0x1.7a3ae3a8a1e1cp-2",
    "0x1.538ecd2717162p+0", "-0x1.424d21ae1bcd3p-1",
    "-0x1.7ff1531527924p-4", "0x1.c2282103483eep-4",
]


@pytest.fixture
def power3():
    return make_power(3, 0.75)


@pytest.fixture
def quad2():
    return make_quadratic(2, center=np.array([0.3, -0.2]), scale=1.5)


def test_confluence_curve_bits(chunk7, power3):
    curve = confluence_curve(
        power3, 1.0, np.array([1.0, -0.5, 0.25]), np.array([-0.5, 0.0, 0.75]),
        0.1, 6.7, 10, 5,
    )
    assert _hex(curve.mean_square_distances) == CONFLUENCE_HEX


def test_moment_envelope_bits(chunk7, power3):
    trace = moment_envelope_check(
        power3, 1.0, np.array([0.5, -1.0, 0.25]), 0.1, 2.0, 6.7, 10, 5, 10.0
    )
    assert _hex(trace.series) == MOMENTS_HEX
    assert _hex([trace.envelope]) == ["0x1.e14e9a811f6b6p+10"]


def test_decreasing_penalization_probe_bits(chunk7, quad2):
    probe = decreasing_penalization_probe(
        quad2, 1.0, 0.25, 1.0, np.array([1.0, -1.0]), np.array([-0.5, 0.5]),
        0.05, 3.35, 10, 5,
    )
    assert _hex(probe.series) == PROBE_HEX
    assert _hex([probe.bound]) == ["0x1.805ac0af297a2p+2"]


def test_ridged_pair_final_positions_bits(chunk7, quad2):
    """The probe's pair, ridged through penalize: each chain's last positions."""
    _, final_a, final_b = engine.pair_distance_series(
        penalize(quad2, 1.0), penalize(quad2, 0.25),
        np.array([1.0, -1.0]), np.array([-0.5, 0.5]), 0.05, 1.0, 67,
        engine.make_streams(5, [0, 3, 8], 2),
    )
    assert _hex(final_a) + _hex(final_b) == PAIR_FINAL_HEX


def test_strong_error_curve_bits(chunk7, power3):
    curve = strong_error_curve(
        power3, 1.0, np.array([1.0, -0.5, 0.25]), (0.1, 0.05, 0.025), 3.35, 10, 5
    )
    assert _hex(curve.mean_square_gaps + curve.standard_errors) == [
        "0x1.f0d3dfe601800p-9", "0x1.3665804a74816p-11", "0x1.323667212f730p-13",
        "0x1.ccc3eb22cefd4p-11", "0x1.41e45fd465941p-13", "0x1.2b38b3cf38bfep-16",
    ]


# Oracle goldens, recorded before the line and radial quadratures shared one
# weight builder and one ratio routine: method, then value and error_estimate
# as float.hex.
ORACLE_MODELS = {
    "power1": (lambda: make_power(1, 0.75), 1.0),
    "power3": (lambda: make_power(3, 0.75), 1.0),
    "ridged-power3": (lambda: penalize(make_power(3, 0.75), 0.3), 0.8),
    "quad1-off": (lambda: make_quadratic(1, center=0.5), 1.3),
}
ORACLE_OBSERVABLES = {
    "norm2": squared_norm,
    "norm4": fourth_norm,
    "coord0": coordinate(0),
    "norm": euclidean_norm,
}
REFERENCE_HEX = {
    ("power1", "norm2"): ("quadrature_1d", "0x1.97f8bc4f87bb4p-2", "0x1.ea9b2bc5e1b40p-36"),
    ("power1", "norm4"): ("quadrature_1d", "0x1.0b3977893f4acp-1", "0x1.e596d6df41379p-37"),
    ("power1", "coord0"): ("quadrature_1d", "0x0.0p+0", "0x1.032c6a39e9a0dp-48"),
    ("power1", "norm"): ("quadrature_1d", "0x1.fd3c7fb684f20p-2", "0x1.455f09dad332cp-38"),
    ("power3", "norm2"): ("quadrature_1d", "0x1.4f5d25341ef4ep+0", "0x1.4d20cdd3684afp-40"),
    ("power3", "norm4"): ("quadrature_1d", "0x1.8aff51d3f3ef7p+1", "0x1.bd169e96cf080p-39"),
    ("power3", "coord0"): ("closed_form", "0x0.0p+0", "0x0.0p+0"),
    ("power3", "norm"): ("quadrature_1d", "0x1.0b2ab1b239093p+0", "0x1.fe5219d12bb65p-37"),
    ("ridged-power3", "norm2"): ("quadrature_1d", "0x1.38a0bed751b59p-1", "0x1.70095a0cb620ep-38"),
    ("ridged-power3", "norm4"): ("quadrature_1d", "0x1.4b9aa6679f6a6p-1", "0x1.08613277cf34dp-35"),
    ("ridged-power3", "coord0"): ("closed_form", "0x0.0p+0", "0x0.0p+0"),
    ("ridged-power3", "norm"): ("quadrature_1d", "0x1.6e9027dc9515ap-1", "0x1.29f2b0001e7b7p-40"),
    ("quad1-off", "norm2"): ("closed_form", "0x1.1851eb851eb86p+0", "0x0.0p+0"),
    ("quad1-off", "norm4"): ("closed_form", "0x1.bc6cf41f212d9p+1", "0x0.0p+0"),
    ("quad1-off", "coord0"): ("closed_form", "0x1.0000000000000p-1", "0x0.0p+0"),
    ("quad1-off", "norm"): ("quadrature_1d", "0x1.adbed4df97d5cp-1", "0x1.319872fffa1aap-33"),
}
FOURTH_MOMENT_HEX = ("quadrature_1d", "0x1.4ffcb7f9e1cd8p-3", "0x1.57d56bd2ebdabp-39")
SCALAR_LAMBDA_HEX = ("quadrature_1d", "0x1.c000000000002p-1", "0x1.0565c67c9f4a3p-39")
RADIAL_HEX = {
    1: ("quadrature_1d", "0x1.e83f51d63ef47p+0", "0x1.19cd666c0fcf6p-34"),
    2: ("quadrature_1d", "0x1.13e84e8a127e9p+2", "0x1.464c09026c3d3p-32"),
    4: ("quadrature_1d", "0x1.07abb24e2dd6cp+5", "0x1.53f6d907a65c0p-33"),
}
W1_GOLDENS = [
    (lambda: make_quadratic(1), lambda: make_quadratic(1, center=0.5), 1.0,
     "0x1.fffffffffffbcp-2"),
    (lambda: make_power(1, 0.75), lambda: penalize(make_power(1, 0.75), 0.3), 1.0,
     "0x1.b8b9101998068p-5"),
    (lambda: make_quadratic(1), lambda: make_quadratic(1, scale=2.0), 0.7,
     "0x1.d9cc0c1e53fe1p-4"),
]


def _ref_hex(ref):
    return (ref.method, ref.value.hex(), ref.error_estimate.hex())


@pytest.mark.parametrize("key", list(REFERENCE_HEX), ids="-".join)
def test_reference_for_bits(key):
    make, sigma = ORACLE_MODELS[key[0]]
    ref = reference_for(make(), ORACLE_OBSERVABLES[key[1]], sigma)
    assert _ref_hex(ref) == REFERENCE_HEX[key]


def test_fourth_moment_reference_bits():
    assert _ref_hex(fourth_moment_reference(make_power(2, 0.9), 0.7)) == FOURTH_MOMENT_HEX


def test_reference_moment_scalar_observable_bits():
    with pytest.warns(RuntimeWarning, match="one row at a time"):
        ref = reference_moment(
            make_quadratic(1, center=0.5), 1.0, lambda x: float(x[0]) ** 3
        )
    assert _ref_hex(ref) == SCALAR_LAMBDA_HEX


@pytest.mark.parametrize("power", sorted(RADIAL_HEX))
def test_radial_moment_bits(power):
    assert _ref_hex(_radial_moment(make_power(4, 0.6), 1.1, power)) == RADIAL_HEX[power]


@pytest.mark.parametrize("make_a, make_b, sigma, want", W1_GOLDENS, ids=["shift", "ridge", "scale"])
def test_w1_distance_bits(make_a, make_b, sigma, want):
    assert w1_distance_1d(make_a(), make_b(), sigma).hex() == want


# Calibrate goldens, recorded before calibration.py decided each step bound,
# input check, level grid and schedule check in one place: the exact stdout
# of `mlgibbs calibrate` is the JSON dump of each plan below.
_QUAD = {"name": "quadratic", "dim": 1}
_POW = {"name": "power", "dim": 1, "p": 0.75}
CALIBRATE_CONFIGS = {
    "penalized-0.3": {"potential": _QUAD, "method": "penalized", "epsilon": 0.3},
    "penalized-0.1": {"potential": _QUAD, "method": "penalized", "epsilon": 0.1},
    "weak_i-0.5": {"potential": _POW, "method": "weak_i", "epsilon": 0.5},
    "weak_i-0.2": {"potential": _POW, "method": "weak_i", "epsilon": 0.2},
    "weak_ii-0.5": {"potential": _POW, "method": "weak_ii", "epsilon": 0.5},
    "weak_ii-0.2": {"potential": _POW, "method": "weak_ii", "epsilon": 0.2},
    "single_level-0.5": {"potential": _QUAD, "method": "single_level", "epsilon": 0.5},
    "single_level-0.2": {"potential": _POW, "method": "single_level", "epsilon": 0.2},
    # the raw level count falls below one and is clamped to J = 1
    "penalized-clamp": {
        "potential": _POW, "method": "penalized", "epsilon": 0.4, "sigma": 0.7,
    },
    "statement_mode": {
        "potential": _QUAD, "method": "penalized", "epsilon": 0.5, "statement_mode": True,
    },
    "tau-safety": {
        "potential": _POW, "method": "weak_ii", "epsilon": 0.5, "tau": 2.0,
        "safety_T_multiplier": 1.5,
    },
    "weak_ii-gamma0": {"potential": _POW, "method": "weak_ii", "epsilon": 0.5, "gamma0": 0.05},
    "single_level-gamma0": {
        "potential": _QUAD, "method": "single_level", "epsilon": 0.5, "gamma0": 0.03,
    },
    "power-d3": {
        "potential": {"name": "power", "dim": 3, "p": 0.75}, "method": "weak_i", "epsilon": 1.0,
    },
    "quad-center-scale": {
        "potential": {"name": "quadratic", "dim": 2, "center": 0.5, "scale": 2.0},
        "method": "penalized",
        "epsilon": 0.3,
    },
}
CALIBRATE_PLANS = {
    "penalized-0.3": {"J": 5,
                      "T": [48.958028148509655, 24.539456084314715, 12.269728042157357,
                            6.134864021078679, 3.0674320105393393, 1.5337160052696697],
                      "alpha": 0.6928203230275509,
                      "cost_exact": 3450,
                      "dim": 1,
                      "epsilon": 0.3,
                      "gamma": [0.12088402011977692, 0.06044201005988846,
                                0.03022100502994423, 0.015110502514972115,
                                0.0075552512574860575, 0.0037776256287430287],
                      "m4": 0.75,
                      "m4_source": "closed_form",
                      "method": "penalized",
                      "potential": "quadratic",
                      "predicted_cost": 23531.965076118315,
                      "rho": 0.0,
                      "sigma": 1.0,
                      "statement_mode": False,
                      "tau": 0.0},
    "penalized-0.1": {"J": 11,
                      "T": [4826.882485566161, 2413.4793463408064, 1206.7396731704032,
                            603.3698365852016, 301.6849182926008, 150.8424591463004,
                            75.4212295731502, 37.7106147865751, 18.85530739328755,
                            9.427653696643775, 4.7138268483218875, 2.3569134241609437],
                      "alpha": 0.23094010767585033,
                      "cost_exact": 1108449,
                      "dim": 1,
                      "epsilon": 0.1,
                      "gamma": [0.07620711545124112, 0.03810355772562056,
                                0.01905177886281028, 0.00952588943140514,
                                0.00476294471570257, 0.002381472357851285,
                                0.0011907361789256425, 0.0005953680894628212,
                                0.0002976840447314106, 0.0001488420223657053,
                                7.442101118285266e-05, 3.721050559142633e-05],
                      "m4": 0.75,
                      "m4_source": "closed_form",
                      "method": "penalized",
                      "potential": "quadratic",
                      "predicted_cost": 40630989.591238126,
                      "rho": 0.0,
                      "sigma": 1.0,
                      "statement_mode": False,
                      "tau": 0.0},
    "weak_i-0.5": {"J": 5,
                   "T": [633.8888888888889, 448.22222222222223, 316.94444444444446,
                         224.11111111111111, 158.47222222222223, 112.05555555555556],
                   "cost_exact": 141764,
                   "dim": 1,
                   "epsilon": 0.5,
                   "gamma": [0.11111111111111112, 0.05555555555555556,
                             0.02777777777777778, 0.01388888888888889,
                             0.006944444444444445, 0.0034722222222222225],
                   "method": "weak_i",
                   "potential": "power",
                   "predicted_cost": 1008.4646449871465,
                   "rho": 0.5,
                   "sigma": 1.0,
                   "tau": 0.0},
    "weak_i-0.2": {"J": 8,
                   "T": [3961.666666666667, 2801.3333333333335, 1980.8333333333335,
                         1400.6666666666667, 990.4166666666667, 700.3263888888889,
                         495.20486111111114, 350.16145833333337, 247.60156250000003],
                   "cost_exact": 2774646,
                   "dim": 1,
                   "epsilon": 0.2,
                   "gamma": [0.11111111111111112, 0.05555555555555556,
                             0.02777777777777778, 0.01388888888888889,
                             0.006944444444444445, 0.0034722222222222225,
                             0.0017361111111111112, 0.0008680555555555556,
                             0.0004340277777777778],
                   "method": "weak_i",
                   "potential": "power",
                   "predicted_cost": 15757.260077924162,
                   "rho": 0.5,
                   "sigma": 1.0,
                   "tau": 0.0},
    "weak_ii-0.5": {"J": 5,
                    "T": [175.44444444444446, 124.11111111111111, 87.72222222222223,
                          62.02777777777778, 43.84722222222223, 31.006944444444446],
                    "cost_exact": 39232,
                    "dim": 1,
                    "epsilon": 0.5,
                    "gamma": [0.11111111111111112, 0.05555555555555556,
                              0.02777777777777778, 0.01388888888888889,
                              0.006944444444444445, 0.0034722222222222225],
                    "method": "weak_ii",
                    "potential": "power",
                    "predicted_cost": 1796.8797190178032,
                    "rho": 0.5,
                    "sigma": 1.0,
                    "tau": 0.0},
    "weak_ii-0.2": {"J": 6,
                    "T": [1096.111111111111, 775.1111111111112, 548.0555555555555,
                          387.5277777777778, 274.02777777777777, 193.7638888888889,
                          137.01041666666669],
                    "cost_exact": 363514,
                    "dim": 1,
                    "epsilon": 0.2,
                    "gamma": [0.11111111111111112, 0.05555555555555556,
                              0.02777777777777778, 0.01388888888888889,
                              0.006944444444444445, 0.0034722222222222225,
                              0.0017361111111111112],
                    "method": "weak_ii",
                    "potential": "power",
                    "predicted_cost": 17756.97685456135,
                    "rho": 0.5,
                    "sigma": 1.0,
                    "tau": 0.0},
    "single_level-0.5": {"J": 0,
                         "T": [5.75],
                         "cost_exact": 23,
                         "dim": 1,
                         "epsilon": 0.5,
                         "gamma": [0.25],
                         "method": "single_level",
                         "potential": "quadratic",
                         "rho": 0.0,
                         "sigma": 1.0,
                         "tau": 0.0},
    "single_level-0.2": {"J": 0,
                         "T": [55.00000000000001],
                         "cost_exact": 495,
                         "dim": 1,
                         "epsilon": 0.2,
                         "gamma": [0.11111111111111112],
                         "method": "single_level",
                         "potential": "power",
                         "rho": 0.0,
                         "sigma": 1.0,
                         "tau": 0.0},
    "penalized-clamp": {"J": 1,
                        "T": [1.3302857702875424, 0.7042689372110518],
                        "alpha": 2.483696901359825,
                        "cost_exact": 44,
                        "dim": 1,
                        "epsilon": 0.4,
                        "gamma": [0.07825210413456131, 0.039126052067280655],
                        "m4": 0.10374872852702695,
                        "m4_source": "quadrature_1d",
                        "method": "penalized",
                        "potential": "power",
                        "predicted_cost": 3.0556262250457977,
                        "rho": 0.0,
                        "sigma": 0.7,
                        "statement_mode": False,
                        "tau": 0.0},
    "statement_mode": {"J": 4,
                       "T": [13.279056191361395, 13.279056191361395, 13.279056191361395,
                             13.279056191361395, 13.20688740771269],
                       "alpha": 1.1547005383792517,
                       "cost_exact": 1055,
                       "dim": 1,
                       "epsilon": 0.5,
                       "gamma": [0.5773502691896258, 0.2886751345948129,
                                 0.14433756729740646, 0.07216878364870323,
                                 0.036084391824351615],
                       "m4": 0.75,
                       "m4_source": "closed_form",
                       "method": "penalized",
                       "potential": "quadratic",
                       "predicted_cost": 30.44563682868306,
                       "rho": 1.0,
                       "sigma": 1.0,
                       "statement_mode": True,
                       "tau": 0.0},
    "tau-safety": {"J": 5,
                   "T": [263.22222222222223, 186.22222222222223, 131.61111111111111,
                         93.05555555555556, 65.77777777777779, 46.51388888888889],
                   "cost_exact": 58856,
                   "dim": 1,
                   "epsilon": 0.5,
                   "gamma": [0.11111111111111112, 0.05555555555555556,
                             0.02777777777777778, 0.01388888888888889,
                             0.006944444444444445, 0.0034722222222222225],
                   "method": "weak_ii",
                   "potential": "power",
                   "predicted_cost": 1796.8797190178032,
                   "rho": 0.5,
                   "sigma": 1.0,
                   "tau": 2.0},
    "weak_ii-gamma0": {"J": 4,
                       "T": [175.4, 124.05000000000001, 87.7, 62.0125, 43.84375],
                       "cost_exact": 57403,
                       "dim": 1,
                       "epsilon": 0.5,
                       "gamma": [0.05, 0.025, 0.0125, 0.00625, 0.003125],
                       "method": "weak_ii",
                       "potential": "power",
                       "predicted_cost": 2678.6301327430197,
                       "rho": 0.5,
                       "sigma": 1.0,
                       "tau": 0.0},
    "single_level-gamma0": {"J": 0,
                            "T": [14.04],
                            "cost_exact": 468,
                            "dim": 1,
                            "epsilon": 0.5,
                            "gamma": [0.03],
                            "method": "single_level",
                            "potential": "quadratic",
                            "rho": 0.0,
                            "sigma": 1.0,
                            "tau": 0.0},
    "power-d3": {"J": 6,
                 "T": [4688.777777777778, 3315.5555555555557, 2344.388888888889,
                       1657.7500000000002, 1172.1944444444446, 828.8680555555557,
                       586.09375],
                 "cost_exact": 1555003,
                 "dim": 3,
                 "epsilon": 1.0,
                 "gamma": [0.11111111111111112, 0.05555555555555556,
                           0.02777777777777778, 0.01388888888888889,
                           0.006944444444444445, 0.0034722222222222225,
                           0.0017361111111111112],
                 "method": "weak_i",
                 "potential": "power",
                 "predicted_cost": 3729.877417406743,
                 "rho": 0.5,
                 "sigma": 1.0,
                 "tau": 0.0},
    "quad-center-scale": {"J": 8,
                          "T": [354.22257253515886, 177.1301218824117,
                                88.56506094120584, 44.28253047060292, 22.14126523530146,
                                11.07063261765073, 5.535316308825365,
                                2.7676581544126826, 1.3838290772063413],
                          "alpha": 0.4535573676110726,
                          "cost_exact": 122251,
                          "dim": 2,
                          "epsilon": 0.3,
                          "gamma": [0.03767122966448568, 0.01883561483224284,
                                    0.00941780741612142, 0.00470890370806071,
                                    0.002354451854030355, 0.0011772259270151776,
                                    0.0005886129635075888, 0.0002943064817537944,
                                    0.0001471532408768972],
                          "m4": 1.75,
                          "m4_source": "closed_form",
                          "method": "penalized",
                          "potential": "quadratic",
                          "predicted_cost": 1799268.4844801545,
                          "rho": 0.0,
                          "sigma": 1.0,
                          "statement_mode": False,
                          "tau": 0.0},
}


@pytest.mark.parametrize("name", list(CALIBRATE_CONFIGS))
def test_calibrate_stdout_bytes(name, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("MLGIBBS_SEED", raising=False)
    base = {"sigma": 1.0, "f": "coord:0", "replicates": 8, "seed": 3}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(base, **CALIBRATE_CONFIGS[name])))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert main(["calibrate", "--config", str(path)]) == 0
    want = json.dumps(CALIBRATE_PLANS[name], indent=2, sort_keys=True) + "\n"
    assert capsys.readouterr().out == want


# Constants and bounds as float.hex, recorded with the calibrate goldens.
TWO_SIDED = make_power(3, 0.75).profile
LOWER_ONLY = ConvexityProfile(Convexity.PARAMETRIC_LOWER, L=2.0, c_lower=0.5, r=0.4)
STRONG = ConvexityProfile(Convexity.STRONGLY_CONVEX, L=2.5, alpha=1.0)


def test_regime_constants_bits():
    two = regime_constants(TWO_SIDED, 3, 1.3, 0.7)
    low = regime_constants(LOWER_ONLY, 2, 0.8)
    assert _hex([two.gamma_star, two.psi_bar, low.gamma_star, low.psi_bar]) == [
        "0x1.c71c71c71c71dp-4", "0x1.6989374bc6a7fp+3",
        "0x1.0000000000000p-3", "0x1.19b0f55c1957dp+6",
    ]


def test_step_bound_bits():
    assert _hex([step_bound(p) for p in (TWO_SIDED, LOWER_ONLY, STRONG)]) == [
        "0x1.c71c71c71c71dp-4", "0x1.0000000000000p-3", "0x1.999999999999ap-4",
    ]


def test_complexity_bound_bits():
    values = [complexity_bound_penalized(0.1, 0.9, 2, 0.75, 1.3, 0.05)]
    for profile, d in ((TWO_SIDED, 3), (LOWER_ONLY, 2)):
        rc = regime_constants(profile, d, 1.3)
        values.append(complexity_bound_weak("i", 0.3, profile, rc, 0.2))
        values.append(complexity_bound_weak("ii", 0.3, profile, rc, 0.2, rho=0.4, gamma0=0.07))
    assert _hex(values) == [
        "0x1.52b1408ac742fp+27",
        "0x1.41367911984c1p+18", "0x1.23f23838b2e58p+17",
        "0x1.1640de518d402p+30", "0x1.ca641a11d3aa9p+27",
    ]
