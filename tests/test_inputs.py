"""Input files fuzzed through `voltplan run`.

Small blocks/nets/spec triples, well formed or with one edit, with integers
up to 2**70: every run ends in exit 0, 2 (a parse or validation error) or 3
(timing infeasible), and a failing run prints one stderr line and no
traceback.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from voltplan.cli import main

INPUTS = ("blocks", "nets", "spec")

# small values, any values up to 2**70, and values past 2**62, where a fixed
# flow sentinel once sat
_num = st.integers(0, 20) | st.integers(0, 2**70) | st.integers(2**62, 2**70)
_pos = st.integers(1, 20) | st.integers(1, 2**70) | st.integers(2**62, 2**70)


@st.composite
def _curve(draw, k):
    """(level, delay, power) points: delays rise, slopes strictly fall."""
    delays = [draw(_pos)]
    for _ in range(k - 1):
        delays.append(delays[-1] + draw(_pos))
    slopes = sorted(draw(st.sets(st.integers(1, 50), min_size=k - 1, max_size=k - 1)),
                    reverse=True)
    powers = [draw(_num)]
    for q in range(k - 1, 0, -1):
        powers.insert(0, powers[0] + slopes[q - 1] * (delays[q] - delays[q - 1]))
    return [(q + 1, delays[q], powers[q]) for q in range(k)]


def _triples(points):
    return " ".join(f"{q} {d} {p}" for q, d, p in points)


@st.composite
def _instance(draw):
    """Texts of a well-formed instance: 1-4 blocks, acyclic nets, k 1-3."""
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 3))
    names = [f"b{i}" for i in range(n)]
    blocks = "".join(f"{name} {draw(_pos)} {draw(_pos)}\n" for name in names)
    nets = ""
    for i in range(n - 1):
        sinks = draw(st.lists(st.sampled_from(names[i + 1:]), max_size=2, unique=True))
        if sinks:
            nets += f"net {names[i]} {' '.join(sinks)}\n"
    curves = [draw(_curve(k)) for _ in names]
    # a constant overhead shifts each curve and keeps it valid
    extra_delay, extra_power = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    overhead = [(q, extra_delay, extra_power) for q in range(1, k + 1)]
    fastest = sum(c[0][1] + extra_delay for c in curves)
    slowest = sum(c[-1][1] + extra_delay for c in curves)
    t_cycle = draw(st.integers(fastest, slowest + 1) | st.integers(0, slowest))
    spec = f"k {k}\ntcycle {t_cycle}\n"
    spec += "".join(f"curve {name} {_triples(c)}\n" for name, c in zip(names, curves))
    spec += f"shifter {draw(_pos)} {draw(_pos)}:{draw(_pos)} {_triples(overhead)}\n"
    return {"blocks": blocks, "nets": nets, "spec": spec}


@st.composite
def _mutated(draw, texts):
    """texts with one token- or line-level edit to one file."""
    texts = dict(texts)
    name = draw(st.sampled_from(INPUTS))
    lines = [line.split() for line in texts[name].splitlines()]
    op = draw(st.sampled_from(("drop", "swap", "nonint", "huge", "empty", "dup", "cut")))
    if op == "empty" or not lines:
        texts[name] = ""
        return texts
    i = draw(st.integers(0, len(lines) - 1))
    row = lines[i]
    j = draw(st.integers(0, len(row) - 1))
    if op == "drop":
        del row[j]
    elif op == "swap":
        row[j], row[-1] = row[-1], row[j]
    elif op == "nonint":
        row[j] = draw(st.sampled_from(("x", "1.5", "-", "1:0", "0x10", "1e3", "#", "b9")))
    elif op == "huge":
        row[j] = str(draw(st.integers(2**62, 2**70) | st.integers(-(2**70), -1)))
    elif op == "dup":
        lines.insert(draw(st.integers(0, len(lines))), list(row))
    else:
        del lines[i]
    texts[name] = "".join(" ".join(row) + "\n" for row in lines)
    return texts


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_run_exits_0_2_or_3_with_one_error_line(data):
    texts = data.draw(_instance())
    if data.draw(st.booleans()):
        texts = data.draw(_mutated(texts))
    with tempfile.TemporaryDirectory() as tmp:
        paths = {name: Path(tmp, f"in.{name}") for name in INPUTS}
        for name, path in paths.items():
            path.write_text(texts[name])
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = main([
                "run", "--blocks", str(paths["blocks"]), "--nets", str(paths["nets"]),
                "--spec", str(paths["spec"]), "--seed", "1", "--out", str(Path(tmp, "out")),
                "--max-levels", "1", "--beta", "1",
            ])
    assert rc in (0, 2, 3)
    if rc == 0:
        assert err.getvalue() == ""
    else:
        assert err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()
