"""Round-trip and fuzz tests for every optrf file format.

Round trip: a generated valid object, formatted, parsed and formatted
again, gives the same bytes.  Fuzz: a valid file with one token replaced
or inserted, or arbitrary text, either parses to a valid object or raises
ConfigError; no other exception type escapes a parser.
"""

import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from optrf.errors import ConfigError
from optrf.features import (FeatureSet, GaussianKernel, format_feature_set,
                            parse_feature_set)
from optrf.sgd import (Classifier, TrainConfig, format_classifier,
                       parse_classifier)
from optrf.tasks import (MetricsRecord, SphereDist, SubgaussianDist,
                         SyntheticTask, format_task, parse_records_csv,
                         parse_task, records_to_csv)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

finite = st.floats(allow_nan=False, allow_infinity=False)
positive = st.floats(min_value=1e-3, max_value=1e3)
unit = st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
names = st.text(max_size=12).filter(
    lambda s: not any(c.isspace() or c == "," for c in s))


def arrays(shape, elements=finite):
    return st.lists(elements, min_size=int(np.prod(shape)),
                    max_size=int(np.prod(shape))).map(
        lambda v: np.array(v, dtype=float).reshape(shape))


@st.composite
def tasks(draw):
    n_anchor = draw(st.integers(1, 3))
    if draw(st.booleans()):
        dim = draw(st.integers(2, 3))
        arcs = None
        if dim == 2 and draw(st.booleans()):
            los = draw(st.lists(st.floats(-10, 10), min_size=1, max_size=3))
            arcs = tuple((lo, lo + draw(positive)) for lo in los)
        dist = SphereDist(dim=dim, radius=draw(positive), arcs=arcs)
    else:
        dim = draw(st.integers(1, 3))
        n_center = draw(st.integers(1, 3))
        w = draw(arrays((n_center,), positive))
        # trunc >= 2 sigma keeps a draw in its box with probability > 0.86
        sigma = draw(positive)
        trunc = sigma * draw(st.floats(2.0, 1e3))
        dist = SubgaussianDist(centers=draw(arrays((n_center, dim))),
                               sigma=sigma, trunc=trunc, weights=w / w.sum())
    return SyntheticTask(
        name=draw(names), kern=GaussianKernel(gamma=draw(positive), dim=dim),
        dist=dist, anchors=draw(arrays((n_anchor, dim))),
        coeffs=draw(arrays((n_anchor,))),
        delta=draw(st.floats(min_value=0.01, max_value=0.99)))


@st.composite
def feature_sets(draw):
    m, dim = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    optimized = draw(st.booleans())
    q = draw(st.none() | arrays((m,), positive))
    return FeatureSet(freqs=draw(arrays((m, dim))),
                      mode="optimized" if optimized else "conventional",
                      leverage_values=q,
                      lam=draw(positive) if optimized else None,
                      acceptance_rate=draw(unit))


@st.composite
def classifiers(draw):
    fs = draw(feature_sets())
    cfg = TrainConfig(lam=draw(positive), num_features=fs.num_features,
                      stream_length=2 * draw(st.integers(1, 10**9)),
                      q_min=draw(unit), f_norm=draw(positive),
                      eta_c=draw(positive))
    return Classifier(feature_set=fs,
                      alpha=draw(arrays((2 * fs.num_features,))), config=cfg)


# every record column is recorded, so the CSV holds finite numbers only
records = st.builds(
    MetricsRecord, task=names,
    mode=st.sampled_from(["optimized", "conventional"]),
    dim=st.integers(1, 9), gamma=finite, delta=finite,
    lam=finite, m=st.integers(0, 10**6), n=st.integers(0, 10**9),
    trial=st.integers(0, 99), seed=st.integers(0, 2**64),
    class_err=finite, bayes_err=finite, excess_err=finite,
    l2=finite, linf=finite, loss=finite,
    accept_rate=finite, wall_ms=finite)

# (strategy of valid objects, format, parse, type of a parsed object)
FORMATS = {
    "task": (tasks(), format_task, parse_task, SyntheticTask),
    "feature set": (feature_sets(), format_feature_set, parse_feature_set,
                    FeatureSet),
    "classifier": (classifiers(), format_classifier, parse_classifier,
                   Classifier),
    "metrics csv": (st.lists(records, max_size=3), records_to_csv,
                    parse_records_csv, list),
}


@pytest.mark.parametrize("name", FORMATS)
@SETTINGS
@given(data=st.data())
def test_round_trip(name, data):
    objects, fmt, parse, _ = FORMATS[name]
    text = fmt(data.draw(objects))
    assert fmt(parse(text)) == text


# the values a mutated token may take: arbitrary text, and the edge cases a
# number parser or a header parser must turn away
tokens = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["", "nan", "-inf", "1e999", "5e-324", "-1", "0", "#",
                     "q=1", "D=2", "none", "x=1", "0:1", "1,2", "0101"]),
    st.integers(-10**30, 10**30).map(str),
    st.floats().map(repr))

_SEPARATOR = re.compile(r"([\s,=:;]+)")


def mutate(text, data):
    """One token of ``text`` replaced, one inserted, or ``text`` replaced."""
    parts = _SEPARATOR.split(text)
    spots = [i for i, p in enumerate(parts) if p and not _SEPARATOR.match(p)]
    how = data.draw(st.sampled_from(["replace", "insert", "arbitrary"]))
    if how == "arbitrary" or not spots:
        return data.draw(st.text(max_size=200))
    i = data.draw(st.sampled_from(spots))
    new = data.draw(tokens)
    parts[i] = new if how == "replace" else data.draw(
        st.sampled_from([" ", ",", "=", "\n"])).join([new, parts[i]])
    return "".join(parts)


@pytest.mark.parametrize("name", FORMATS)
@settings(SETTINGS, max_examples=300)
@given(data=st.data())
def test_fuzz(name, data):
    objects, fmt, parse, kind = FORMATS[name]
    text = mutate(fmt(data.draw(objects)), data)
    try:
        out = parse(text)
    except ConfigError:
        return
    assert isinstance(out, kind)
