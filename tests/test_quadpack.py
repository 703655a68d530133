"""Bit-identity goldens for the QUADPACK QAGS transcription.

Each golden is what scipy 1.17.1's compiled QUADPACK dqagse returned for the
case (value and abserr as float.hex, and ier), with the number of integrand
calls and a digest of the abscissae in call order.  The cases cover
extrapolation (log x and x^-0.9 on [0, 1]), the branches of dqpsrt that only
a difficult integrand reaches (log|x - 0.5|, sin 50x at 1e-12), every ier
from 0 to 6, and runs cut short at 3 and 10 subintervals.  The test imports
no scipy."""

import hashlib
import math

import pytest

from mlgibbs import diagnostics
from mlgibbs.cli import EXIT_ORACLE, main
from mlgibbs.errors import OracleFailureError
from mlgibbs.quadpack import qags


def _log0(x):
    return math.log(x) if x > 0.0 else 0.0


def _log_abs_half(x):
    return math.log(abs(x - 0.5)) if x != 0.5 else 0.0


def _inv_sq(x):
    return 1.0 / (x * x) if x != 0.0 else 0.0


def _inv_abs_third(x):
    return 1.0 / abs(x - 1.0 / 3.0) if x != 1.0 / 3.0 else 0.0


def _sin_inv_over_sq(x):
    return math.sin(1.0 / x) / (x * x) if x != 0.0 else 0.0


def _radial(p, k):
    # r^k exp(-2 (1 + r^2)^p), the radial power-family densities
    return lambda r: r**k * math.exp(-2.0 * (1.0 + r * r) ** p)


# id: (integrand, a, b, epsabs, epsrel, limit)
CASES = {
    "gauss": (lambda x: math.exp(-x * x), -5.0, 5.0, 1e-12, 1e-10, 500),
    "log-x": (_log0, 0.0, 1.0, 1e-12, 1e-10, 500),
    "x^-0.9": (lambda x: x**-0.9, 0.0, 1.0, 1e-12, 1e-10, 500),
    "x^-0.9-limit3": (lambda x: x**-0.9, 0.0, 1.0, 1e-12, 1e-10, 3),
    "x^-0.99": (lambda x: x**-0.99, 0.0, 1.0, 1e-10, 1e-8, 500),
    "inv-sqrt": (lambda x: 1.0 / math.sqrt(x), 0.0, 1.0, 1.49e-8, 1.49e-8, 500),
    "log-x/sqrt-x": (lambda x: math.log(x) / math.sqrt(x), 0.0, 1.0, 1e-12, 1e-10, 500),
    "sin50x": (lambda x: math.sin(50.0 * x), 0.0, 3.0, 1e-10, 1e-8, 500),
    "sin50x-1e-12": (lambda x: math.sin(50.0 * x), 0.0, 3.0, 0.0, 1e-12, 500),
    "sin50x-limit10": (lambda x: math.sin(50.0 * x), 0.0, 3.0, 1e-12, 1e-10, 10),
    "abs-x-0.3": (lambda x: abs(x - 0.3), 0.0, 1.0, 1e-12, 1e-10, 500),
    "step-0.3": (lambda x: 1.0 if x > 0.3 else 0.0, 0.0, 1.0, 1e-12, 1e-10, 500),
    "log-abs-x-0.5": (_log_abs_half, 0.0, 1.0, 1e-12, 1e-10, 500),
    "log-abs-x-0.5-1e-12": (_log_abs_half, 0.0, 1.0, 0.0, 1e-12, 500),
    "log-abs-x-0.5-limit10": (_log_abs_half, 0.0, 1.0, 1e-12, 1e-10, 10),
    "sqrt-abs-x-1/3": (lambda x: math.sqrt(abs(x - 1.0 / 3.0)), 0.0, 1.0, 1e-12, 1e-10, 500),
    "radial-p0.75-r2": (_radial(0.75, 2), 0.0, 12.0, 1e-12, 1e-10, 500),
    "radial-p0.6-r6": (_radial(0.6, 6), 0.0, 30.0, 1e-12, 1e-10, 500),
    "odd": (lambda x: x * math.exp(-x * x), -6.0, 6.0, 1e-12, 1e-10, 500),
    "runge": (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0, 0.0, 1e-12, 500),
    "sin-1/x": (lambda x: math.sin(1.0 / x) if x > 0.0 else 0.0, 0.0, 1.0, 1e-12, 1e-10, 500),
    "inv-sq-divergent": (_inv_sq, 0.0, 1.0, 0.0, 1e-10, 500),
    "inv-abs-1/3": (_inv_abs_third, 0.0, 1.0, 0.0, 1e-10, 500),
    "tan": (math.tan, 0.0, math.pi / 2.0, 0.0, 1e-10, 500),
    "tan-limit10": (math.tan, 0.0, math.pi / 2.0, 1e-12, 1e-10, 10),
    "sin-1/x-over-x^2": (_sin_inv_over_sq, 0.0, 1.0, 1e-10, 1e-8, 500),
    "zero": (lambda x: 0.0, 0.0, 1.0, 1e-12, 1e-10, 500),
    "invalid-tolerance": (lambda x: 1.0, 0.0, 1.0, 0.0, 1e-20, 500),
}

# id: (value hex, abserr hex, ier, calls, sha256 of the abscissae's hex, first 16)
GOLDENS = {
    "abs-x-0.3": ("0x1.28f5c28f5c28cp-2", "0x1.733333333332fp-52", 0, 357, "348de6a1b2addbc3"),
    "gauss": ("0x1.c5bf891b4bf7bp+0", "0x1.a0af79c000000p-45", 0, 147, "da2cf766d1d80f55"),
    "inv-abs-1/3": ("0x1.2b3212208ec7dp+6", "0x1.34c87b229d1d2p+3", 3, 1995, "74401af492b367b3"),
    "inv-sq-divergent": ("-0x1.0000000000000p+0", "0x1.0000000000000p-40", 5, 231, "173ce8e9c0596493"),
    "inv-sqrt": ("0x1.ffffffffffff9p+0", "0x1.a000000000000p-48", 0, 231, "173ce8e9c0596493"),
    "invalid-tolerance": ("0x0.0p+0", "0x0.0p+0", 6, 0, "e3b0c44298fc1c14"),
    "log-abs-x-0.5": ("-0x1.b17217f7d1cf6p+0", "0x1.0ee74efae321ap-49", 0, 483, "9f21e7923441b468"),
    "log-abs-x-0.5-1e-12": ("-0x1.b17217f7d1cf6p+0", "0x1.0ee74efae321ap-49", 0, 483, "9f21e7923441b468"),
    "log-abs-x-0.5-limit10": ("-0x1.b16e99099e734p+0", "0x1.78293448a51cdp-5", 1, 399, "14f5acd729e36b01"),
    "log-x": ("-0x1.fffffffffffffp-1", "0x1.3ffffffffffffp-50", 0, 231, "173ce8e9c0596493"),
    "log-x/sqrt-x": ("-0x1.0000000000060p+2", "0x1.3100000000000p-43", 0, 315, "b8d276b3fded1609"),
    "odd": ("0x0.0p+0", "0x1.54a5814efe1fap-47", 0, 21, "6813bfb3991b8dba"),
    "radial-p0.6-r6": ("0x1.728e5afa52e85p-1", "0x1.07c3c06290000p-39", 0, 189, "867a5afc5d227db7"),
    "radial-p0.75-r2": ("0x1.4f80d8c537ee4p-5", "0x1.9a348a1800000p-47", 0, 147, "e73101f38e1be7d1"),
    "runge": ("0x1.1945c10eaa046p-1", "0x1.b58e552cc0000p-48", 0, 231, "b96273edc520c91f"),
    "sin-1/x": ("0x1.021ac94a9d99cp-1", "0x1.258e05ce9c000p-15", 1, 20979, "e2acd7c3c0b680b7"),
    "sin-1/x-over-x^2": ("0x1.b60c6702093fep+21", "0x1.5472312b4ea6fp+24", 4, 6657, "abcb96b4390ed9f4"),
    "sin50x": ("0x1.8a32af026cfb0p-8", "0x1.c458debb80000p-42", 0, 651, "0dd8b853de7ae57c"),
    "sin50x-1e-12": ("0x1.8a32af026cf24p-8", "0x1.7795d71f88da1p-46", 2, 1743, "0b107f39df721f88"),
    "sin50x-limit10": ("0x1.8a32af026d148p-8", "0x1.5364603a81ef4p-16", 1, 399, "9a2e34dba31423f8"),
    "sqrt-abs-x-1/3": ("0x1.f6f9d66120525p-2", "0x1.3a5c25fcb4337p-51", 0, 231, "80b6f0a92549d642"),
    "step-0.3": ("0x1.6666666666667p-1", "0x1.c000000000001p-51", 0, 357, "348de6a1b2addbc3"),
    "tan": ("0x1.34b63060e5020p+5", "0x1.0e31200489f63p+3", 3, 1953, "d899ae83c7f8c8aa"),
    "tan-limit10": ("0x1.affad85cbbf08p+3", "0x1.2b37cb268a1acp+3", 1, 399, "2168850194049527"),
    "x^-0.9": ("0x1.3ffffffffff8bp+3", "0x1.7f00000000000p-41", 0, 231, "173ce8e9c0596493"),
    "x^-0.9-limit3": ("0x1.805cd9a9823a0p+2", "0x1.3fc9b1cab2a6ap+2", 1, 105, "c01f605a215c1f9d"),
    "x^-0.99": ("0x1.8ffffffffff76p+6", "0x1.7b80000000000p-34", 0, 231, "173ce8e9c0596493"),
    "zero": ("0x0.0p+0", "0x0.0p+0", 0, 21, "7b8f102342306f22"),
}


def _run(case):
    f, a, b, epsabs, epsrel, limit = CASES[case]
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    value, abserr, ier = qags(g, a, b, epsabs, epsrel, limit)
    digest = hashlib.sha256(" ".join(x.hex() for x in xs).encode()).hexdigest()[:16]
    return value.hex(), abserr.hex(), ier, len(xs), digest


@pytest.mark.parametrize("case", sorted(CASES))
def test_qags_has_the_bits_and_call_order_of_quadpack(case):
    assert _run(case) == GOLDENS[case]


def test_quad_raises_when_quadpack_reports_failure():
    # 1/x is not integrable at 0: QAGS uses up its 500 subintervals (ier 1)
    with pytest.raises(OracleFailureError, match="ier=1"):
        diagnostics._quad(lambda x: 1.0 / x if x else 0.0, 0.0, 1.0)


def test_a_quadrature_failure_exits_five(tmp_path, monkeypatch, capsys):
    # the fourth-moment pilot of a penalized power model integrates radially
    from mlgibbs import quadpack

    monkeypatch.setattr(quadpack, "qags", lambda f, a, b, epsabs, epsrel, limit: (0.0, 0.0, 5))
    path = tmp_path / "config.json"
    path.write_text(
        '{"potential": {"name": "power", "dim": 1, "p": 0.75}, "method": "penalized",'
        ' "sigma": 1.0, "epsilon": 0.5, "f": "coord:0", "replicates": 4, "seed": 0}'
    )
    assert main(["calibrate", "--config", str(path)]) == EXIT_ORACLE
    assert "ier=5" in capsys.readouterr().err
