"""Fuzz of the command line: random argv for every subcommand, run in
process through `cli.dispatch`.

Every example must return 0, 1 or 2 (argparse's own exit 2 included), and
exit 0 must print a JSON report that passed.  No other exception may
escape, and pytest's `filterwarnings = error` turns a leaked numpy warning
into a failure.  Config keys come from each model's and experiment's
allowed set, with values that mix ordinary, boundary, huge, tiny, negative,
inf and nan numbers, and empty and one-entry lists; a gamma is also
10^4, inf or nan more often.  Sizes (steps, T,
samples, N, k and J) are either small or so large that the size check
rejects them before anything is allocated, so that no example allocates
more than a few MB.  Moment orders are small, fractional or so large that
the gamma experiment rejects them before sampling, as it does any order
whose target leaves float range.  `simulate` sometimes writes its CSV and
trajectory CSV, into one temporary directory for the whole module.
"""

import contextlib
import inspect
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynvertex import asymptotics, cli
from dynvertex.symfun import SUITES

INF, NAN = math.inf, math.nan

# Ordinary, boundary, huge, tiny, negative, inf and nan.
SPECIAL = (0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 2.0, 3.0, 5.0, -0.2, -0.5,
           1e-300, 5e-324, -1e-300, 1e300, -1e300, 1.7976931348623157e308,
           INF, -INF, NAN)
numbers = st.one_of(st.sampled_from(SPECIAL), st.floats(-10, 10),
                    st.integers(-3, 6))
# A size is small, not an integer, or past every machine's memory.
sizes = st.one_of(st.integers(-2, 6), st.sampled_from((2.5, 1e300, INF,
                                                       -INF, NAN)))
# A dynamical parameter is any number, or the least gamma of the thinned
# bit-sliced path, or gamma = inf, where no identity holds.
gammas = st.one_of(numbers, st.sampled_from((1e4, INF, NAN)))
# A moment order is small, not an integer, or one whose target overflows.
orders = st.one_of(st.integers(-2, 6),
                   st.sampled_from((2.5, 1e7, 3e7, INF, NAN)))
# The files simulate writes; hypothesis rejects pytest's function-scoped
# tmp_path.
OUT = tempfile.TemporaryDirectory()


def lists_of(elements):
    """Empty and one-entry lists."""
    return st.lists(elements, max_size=1)


values = st.one_of(numbers, lists_of(numbers),
                   lists_of(st.lists(numbers, min_size=2, max_size=2)))

# the parameters of the test suite's general model, whose weights are
# admissible
GENERAL = {"q": 0.4, "delta": -0.2, "U": [1.05], "Xi": [[0, 0.5477]],
           "S": [[0, 0.5477]], "J": [1]}
SIZE_KEYS = {"J", "T", "samples"}


def _value(key):
    if key in SIZE_KEYS:
        return st.one_of(sizes, lists_of(sizes))
    if key == "T_list":
        return st.one_of(sizes, st.lists(sizes, max_size=3))
    if key == "m_list":
        return st.one_of(orders, st.lists(orders, max_size=3))
    if key == "gamma":
        return st.one_of(gammas, lists_of(gammas))
    return values


@st.composite
def configs(draw, keys, base=()):
    """A config over keys: base's entries, each dropped or redrawn at
    random, and drawn values of the other keys."""
    cfg = dict(base)
    for key in draw(st.lists(st.sampled_from(keys), unique=True)):
        if key in cfg and draw(st.booleans()):
            del cfg[key]
        else:
            cfg[key] = draw(_value(key))
    return cfg


def _token(x):
    return repr(float(x)) if isinstance(x, float) else str(x)


seeds = st.one_of(st.integers(-3, 5), st.just(2 ** 64 + 1))
tols = st.one_of(st.sampled_from(SPECIAL), st.just(1e-8))


@st.composite
def flag(draw, name, *elements):
    """[name=token] or [name, token, ...], one drawn value per strategy in
    elements, or, half of the time, nothing, so that the default is used.
    A lone value is joined with "=", as argparse would read a lone "-inf"
    or "-1e+300" as an option."""
    if not draw(st.booleans()):
        return []
    tokens = [_token(draw(e)) for e in elements]
    return ["%s=%s" % (name, *tokens)] if len(tokens) == 1 else [name] + tokens


def one_or_two(name, elements):
    """flag(name, ...) with one value or two."""
    return st.one_of(flag(name, elements), flag(name, elements, elements))


@st.composite
def specfun_argv(draw):
    # the default grid of 100 points takes 0.15 s: cap it
    return (["specfun", "--grid-size=%d" % draw(st.integers(-1, 3))]
            + draw(flag("--tol", tols)) + draw(flag("--seed", seeds)))


@st.composite
def check_weights_argv(draw):
    return (["check-weights"]
            + draw(flag("--family", st.sampled_from(("phi", "psi", "both"))))
            + draw(flag("--tol", tols)) + draw(flag("--seed", seeds)))


@st.composite
def symfun_argv(draw):
    return (["symfun"] + draw(flag("--suite", st.sampled_from(SUITES)))
            + draw(flag("--tol", tols)) + draw(flag("--mass-tol", tols))
            + draw(flag("--seed", seeds)))


@st.composite
def simulate_argv(draw):
    model = draw(st.sampled_from(tuple(cli._MODEL_KEYS)))
    base = GENERAL if model == "general" else {}
    sites = st.one_of(st.integers(1, 6), numbers,
                      st.sampled_from((0.5, 9e15)))
    return (["simulate", "--model", model, "--config",
             json.dumps(draw(configs(cli._MODEL_KEYS[model], base))),
             "--steps", _token(draw(st.integers(-1, 8)))]
            + draw(flag("--samples", st.integers(-1, 20)))
            + draw(one_or_two("--sites", sites))
            + draw(flag("--csv", st.just(os.path.join(OUT.name, "s.csv"))))
            + draw(flag("--trajectory-csv",
                        st.just(os.path.join(OUT.name, "t.csv"))))
            + draw(flag("--seed", seeds)))


@st.composite
def verify_identity_argv(draw):
    xs = draw(st.one_of(
        st.lists(st.integers(1, 4), min_size=1, max_size=3).map(
            lambda xs: sorted(xs, reverse=True)),
        st.lists(st.integers(-1, 5), min_size=1, max_size=3)))
    return (["verify-identity", "--form",
             draw(st.sampled_from(("qhahn", "pep"))),
             "--x"] + [str(x) for x in xs]
            + draw(flag("--k", st.one_of(st.just(len(xs)),
                                         st.integers(0, 3))))
            + draw(flag("--N", st.integers(-1, 5)))
            + draw(flag("--samples", st.one_of(st.just(0),
                                               st.integers(-1, 20))))
            + draw(flag("--q", numbers)) + draw(flag("--delta", numbers))
            + draw(flag("--gamma", gammas))
            + draw(one_or_two("--b", numbers))
            + draw(one_or_two("--J", st.integers(-1, 3)))
            + draw(flag("--tol", tols)) + draw(flag("--seed", seeds)))


def _experiment_keys(name):
    fn = asymptotics._EXPERIMENTS[cli._EXPERIMENT_NAMES[name]]
    return tuple(inspect.signature(fn).parameters)[1:]


@st.composite
def asymptotics_argv(draw):
    name = draw(st.sampled_from(tuple(cli._EXPERIMENT_NAMES)))
    cfg = draw(configs(_experiment_keys(name)))
    # the default horizons and sample counts are paper-scale: cap them
    cfg.setdefault("samples", 3)
    if name == "kpz-exponent":
        cfg.setdefault("T_list", [4, 6])
    else:
        cfg.setdefault("T", 6)
    return (["asymptotics", "--experiment", name, "--config", json.dumps(cfg)]
            + draw(flag("--gate", tols)) + draw(flag("--seed", seeds)))


SUBCOMMANDS = {"specfun": specfun_argv(),
               "check-weights": check_weights_argv(),
               "symfun": symfun_argv(),
               "simulate": simulate_argv(),
               "verify-identity": verify_identity_argv(),
               "asymptotics": asymptotics_argv()}
# check-weights evaluates a fixed grid (34-116 ms a run): a small share
argvs = st.sampled_from(
    ["specfun", "symfun", "simulate", "verify-identity", "asymptotics"] * 8
    + ["check-weights"]).flatmap(SUBCOMMANDS.get)


@settings(max_examples=1000)
@given(argvs)
# each command-line repro mended alongside this test
@example(["simulate", "--model", "asym-pep", "--steps", "20", "--samples",
          "200", "--sites", "8", "--config", '{"delta": NaN}'])
@example(["simulate", "--model", "asym-pep", "--steps", "20", "--samples",
          "200", "--sites", "8", "--config", '{"delta": -Infinity}'])
@example(["simulate", "--model", "pep", "--steps", "5", "--samples", "2",
          "--seed", "-3"])
@example(["verify-identity", "--form", "pep", "--k", "1", "--x", "2",
          "--N", "3", "--samples", "10", "--seed", "-1"])
@example(["specfun", "--seed", "-1"])
@example(["asymptotics", "--experiment", "heat", "--seed", "-1"])
@example(["check-weights", "--seed", "-1"])
@example(["symfun", "--seed", "-1"])
@example(["simulate", "--model", "qhahn", "--steps", "3", "--samples", "2",
          "--config", '{"B": []}'])
@example(["simulate", "--model", "qhahn", "--steps", "3", "--samples", "2",
          "--config", '{"C": [], "J": []}'])
@example(["simulate", "--model", "qhahn", "--steps", "3", "--samples", "2",
          "--config", '{"B": [0]}'])
@example(["simulate", "--model", "general", "--steps", "3", "--samples",
          "2", "--config", '{"q": 0.4, "delta": -0.2, "U": [], "Xi": [0.5], '
          '"S": [0.5], "J": [1]}'])
@example(["simulate", "--model", "general", "--steps", "3", "--samples",
          "2", "--config", '{"q": 0.4, "delta": -0.2, "U": [1.05], '
          '"Xi": [0.5], "S": [0.5], "J": []}'])
@example(["verify-identity", "--form", "qhahn", "--k", "1", "--x", "2",
          "--N", "3", "--b", "0"])
@example(["verify-identity", "--form", "qhahn", "--k", "1", "--x", "2",
          "--N", "3", "--b", "inf"])
@example(["verify-identity", "--form", "qhahn", "--k", "1", "--x", "2",
          "--N", "3", "--b", "nan"])
# the fuzz's own finds
@example(["verify-identity", "--form", "qhahn", "--x", "1", "--q=5e-324",
          "--J=2"])
@example(["verify-identity", "--form", "qhahn", "--x", "2", "1", "--N", "3",
          "--tol=5e-324"])
@example(["verify-identity", "--form", "qhahn", "--x", "4", "4", "4",
          "--samples=4", "--q=1.4591418559533516", "--b=-1e+300"])
@example(["simulate", "--model", "pep", "--steps", "2", "--samples", "2",
          "--config", '{"J": 1e300, "gamma": Infinity}'])
@example(["simulate", "--model", "qhahn", "--steps", "2", "--samples", "2",
          "--config", '{"J": [1e300]}'])
@example(["verify-identity", "--form", "pep", "--x", "1", "--N", "4",
          "--tol=1.7976931348623157e+308"])
@example(["asymptotics", "--experiment", "gamma", "--config",
          '{"gamma": Infinity, "samples": 3, "T": 6}'])
@example(["asymptotics", "--experiment", "gamma", "--config",
          '{"m_list": [30000000], "T": 4, "samples": 3}'])
@example(["asymptotics", "--experiment", "gamma", "--config",
          '{"m_list": [2.5], "T": 4, "samples": 3}'])
@example(["asymptotics", "--experiment", "gamma", "--config",
          '{"gamma": 1.5, "T": 4, "samples": 3}'])
@example(["asymptotics", "--experiment", "heat", "--config",
          '{"J": 1e13, "T": 4, "samples": 3}'])
@example(["simulate", "--model", "qhahn", "--config",
          '{"q": 1e-200, "B": [1.0], "C": [1e-200], "J": [1]}', "--steps",
          "3", "--samples", "5"])
@example(["simulate", "--model", "corner-dyn", "--steps", "3", "--samples",
          "2", "--sites", "0.5", "--trajectory-csv",
          os.path.join(OUT.name, "t.csv")])
# later repros: an identity at gamma = inf, a gamma site below 1, and the
# thinned path and gamma = inf of the bit-sliced engine
@example(["verify-identity", "--form", "pep", "--gamma", "inf", "--x", "1",
          "--N", "3"])
@example(["verify-identity", "--form", "pep", "--gamma", "inf", "--x", "1",
          "--N", "3", "--samples", "50"])
@example(["asymptotics", "--experiment", "gamma", "--config",
          '{"T": 16, "s": -4, "samples": 50}'])
@example(["asymptotics", "--experiment", "gamma", "--config",
          '{"T": 16, "s": -6, "samples": 50}'])
@example(["simulate", "--model", "pep", "--config", '{"gamma": 10000}',
          "--steps", "10", "--samples", "2000", "--sites", "3"])
@example(["simulate", "--model", "corner-dyn", "--config",
          '{"gamma": Infinity}', "--steps", "6", "--samples", "20"])
# configs with nothing to measure, a gamma site below 1 at m = 0 alone,
# and a J whose (occupancy, key) pair codes pass int64
@example(["asymptotics", "--experiment", "heat", "--config",
          '{"s": [], "T": 16, "samples": 10}'])
@example(["asymptotics", "--experiment", "f-collapse", "--config",
          '{"eta_list": [], "T": 16, "samples": 10}'])
@example(["asymptotics", "--experiment", "gamma", "--config",
          '{"m_list": [], "T": 16, "samples": 10}'])
@example(["asymptotics", "--experiment", "kpz-exponent", "--config",
          '{"T_list": [16, 32], "samples": 1}'])
@example(["asymptotics", "--experiment", "kpz-exponent", "--config",
          '{"T_list": [16, 32], "samples": 2}'])
@example(["asymptotics", "--experiment", "f-collapse", "--config",
          '{"T": 16, "samples": 1}'])
@example(["asymptotics", "--experiment", "heat", "--config",
          '{"T": 16, "samples": 1}'])
@example(["asymptotics", "--experiment", "gamma", "--config",
          '{"T": 16, "s": -4, "m_list": [0], "samples": 5}'])
@example(["simulate", "--model", "pep", "--config",
          '{"J": 1e13, "gamma": 1e14}', "--steps", "3", "--samples", "4"])
def test_every_argv_exits_0_1_or_2(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.dispatch(argv)
    assert code in (0, 1, 2), (argv, code, err.getvalue())
    if code == 0:
        assert json.loads(out.getvalue())["passed"] is True
