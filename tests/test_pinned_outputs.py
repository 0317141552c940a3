"""Every pinned output, checked by the benchmark's own workloads and checks.

Each workload runs once at ``reference.DEFAULT_SEED`` and checks what it
writes against ``bench/reference.py``: both simulation CSV SHA-256s, both
tree roots, the 25 published cells, the term-sum rationals, and proof round
trips and tamper rejection.  The outputs the benchmark writes but does not
pin (the ``table`` text and the ``figure`` SVG) are pinned in
``frozen_values``.
"""

import hashlib

import pytest

import reference
import workloads
from merkle_falsify import cli, simulate

from frozen_values import FIGURE_SVG_SHA256, TABLE_CSV_SHA256, TABLE_MD_SHA256


def _rep(name, tmp_path):
    """One rep of workload ``name`` at the pinned seed: its inputs and checks."""
    workload = workloads.WORKLOADS[name]
    inputs = workload.prepare(reference.DEFAULT_SEED, tmp_path, serial=False)
    checks = workloads.Checks()
    workload.rep(inputs, checks)
    return inputs, checks


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_outputs_match_reference(name, tmp_path):
    inputs, checks = _rep(name, tmp_path)
    assert checks.attempted > 0
    assert checks.failures == {}
    if name == "sim-saturating":
        svg = inputs.svg_path.read_bytes()
        assert hashlib.sha256(svg).hexdigest() == FIGURE_SVG_SHA256


@pytest.mark.parametrize("fmt, pinned", [("csv", TABLE_CSV_SHA256), ("md", TABLE_MD_SHA256)])
def test_table_output_is_pinned(fmt, pinned, capsys):
    assert cli.main(["table", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == pinned


def test_pin_check_sees_a_changed_csv(monkeypatch, tmp_path):
    # Other seed text, other draws: the CSV's bytes move, and the pin is the
    # one check that sees it.
    derive_seed = simulate._derive_seed
    monkeypatch.setattr(simulate, "_derive_seed", lambda tag, *key: derive_seed(f"{tag}:x", *key))
    _, checks = _rep("sim-saturating", tmp_path)
    assert checks.failures == {"csv.pinned_sha256": 1}
