"""The region sweep: stacked evaluation against one ``analyze_state`` per cell."""

import hashlib
import math
import sys

import numpy as np
import pytest

from cvprivacy import SymmetricStateParams, analyze_state, cli, make_symmetric_state
from cvprivacy.cli import SWEEP_COLUMNS, SweepSpec, render_sweep, sweep_rows
from cvprivacy.exceptions import Unphysical
from cvprivacy.states import _symmetric_stack

SPACING_1E11 = float(np.spacing(1e11))

GRIDS = {
    # lam = 1 and c = 0 edges, cells on c = lam - 1 (lam = 2.0, c = 1.0)
    "coarse": SweepSpec((1.0, 4.0, 31), (0.0, 3.0, 31)),
    # c = sqrt(lam^2 - 1) = 0.75 and c = lam - 1 = 0.25 at lam = 1.25, exactly
    "ties": SweepSpec((1.25, 2.0, 4), (0.0, 0.75, 4)),
    # c = sqrt(3) at lam = 2, on the physical boundary up to rounding
    "physical_edge": SweepSpec((2.0, 3.0, 2), (0.0, math.sqrt(3.0), 9)),
    # lam = c: singular covariances, rejected by the margin
    "singular": SweepSpec((1.0, 3.0, 5), (1.0, 3.0, 5)),
    # c within a few ulps of lam = 1e11: the smallest eigenvalue lam - c of
    # gamma lies below eigh's error eps |gamma| on cells that pass the margin
    "spd_check": SweepSpec(
        (1e11, 1e11 + 64 * SPACING_1E11, 33),
        (1e11 - 8 * SPACING_1E11, 1e11 + 56 * SPACING_1E11, 33),
    ),
    # lam < 1 everywhere: every stack is empty after the margin
    "unphysical": SweepSpec((0.0, 0.9, 4), (0.0, 0.5, 3)),
}


def cell_by_cell_rows(spec: SweepSpec):
    """The oracle: one ``analyze_state`` report per cell, unphysical -> zeros."""
    lambdas = np.linspace(spec.lambda_range[0], spec.lambda_range[1], spec.lambda_range[2])
    cs = np.linspace(spec.c_range[0], spec.c_range[1], spec.c_range[2])
    for lam in lambdas:
        for c in cs:
            params = SymmetricStateParams(float(lam), float(c), float(c))
            try:
                rep = analyze_state(make_symmetric_state(params))
                flags = (True, not rep.ppt, rep.individual_secure, rep.collective_secure)
            except Unphysical:
                flags = (False, False, False, False)
            yield f"{lam:.12g},{c:.12g}," + ",".join(str(int(f)) for f in flags)


def grid_cells(spec: SweepSpec):
    lambdas = np.linspace(spec.lambda_range[0], spec.lambda_range[1], spec.lambda_range[2])
    cs = np.linspace(spec.c_range[0], spec.c_range[1], spec.c_range[2])
    return np.repeat(lambdas, len(cs)), np.tile(cs, len(lambdas))


def test_sweep_csv_bytes_pinned(capsys):
    code = cli.main(["sweep", "--grid", "1:4:200,0:3.9:200"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "bef4e5362888ffce86c5237b007b2a6e7a2cefc1184a818d121d84f2c8456abf"
    )


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_stacked_sweep_equals_cell_by_cell(name):
    spec = GRIDS[name]
    assert list(sweep_rows(spec)) == list(cell_by_cell_rows(spec))


def test_sweep_grids_reach_every_path():
    lam, c = grid_cells(GRIDS["coarse"])
    assert np.any((c == lam - 1.0) & (lam > 1.0))
    assert np.any(c == 0.0) and np.any(lam == 1.0)
    lam, c = grid_cells(GRIDS["ties"])
    assert np.any(c == np.sqrt(lam * lam - 1.0)) and np.any(c == lam - 1.0)
    lam, c = grid_cells(GRIDS["physical_edge"])
    assert np.any(c == np.sqrt(lam * lam - 1.0))
    lam, c = grid_cells(GRIDS["singular"])
    assert np.any(lam == c)
    lam, c = grid_cells(GRIDS["spd_check"])
    ok = _symmetric_stack(lam, c, c)[2]
    assert ok.sum() == 654
    # closed form on these cells: physical by the margin, nu of the partial
    # transpose lam - c is a few ulps (NPPT), and k_B ~ 2 / (lam - c) dwarfs
    # k_F ~ 2 (lam - c) (secure on both counts)
    rows = list(sweep_rows(GRIDS["spd_check"]))
    assert {rows[i][-7:] for i in np.flatnonzero(ok)} == {"1,1,1,1"}
    lam, c = grid_cells(GRIDS["unphysical"])
    assert not _symmetric_stack(lam, c, c)[2].any()
    assert set(line[-7:] for line in sweep_rows(GRIDS["unphysical"])) == {"0,0,0,0"}


def test_sweep_stacks_stay_within_the_chunk(monkeypatch):
    sizes = []
    real = cli._symmetric_stack
    monkeypatch.setattr(cli, "_symmetric_stack", lambda *a: sizes.append(len(a[0])) or real(*a))
    # 9 cells per lam row and 7 per stack: stack boundaries fall inside rows
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 7)
    spec = SweepSpec((1.0, 4.0, 5), (0.0, 3.9, 9))
    assert list(sweep_rows(spec)) == list(cell_by_cell_rows(spec))
    assert sizes == [7] * 6 + [3]

    sizes.clear()
    monkeypatch.setattr(cli, "SWEEP_CHUNK", 4096)
    render_sweep(SweepSpec((1.0, 4.0, 70), (0.0, 3.9, 70)))
    assert sizes == [4096, 70 * 70 - 4096]


def test_sweep_evaluates_no_cell_one_by_one(monkeypatch):
    # the traced benchmark counts calls of these public functions per item
    def forbidden(*args, **kwargs):
        raise AssertionError("per-cell call in the sweep")

    for name, module in list(sys.modules.items()):
        if name.startswith("cvprivacy."):
            for attr in ("analyze_state", "is_nppt", "is_physical", "symplectic_eigenvalues"):
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, forbidden)
    text = render_sweep(SweepSpec((1.0, 4.0, 6), (0.0, 3.9, 6)))
    assert text.startswith(SWEEP_COLUMNS + "\n")
    assert "1,1,1,1" in text and "0,0,0,0" in text


@pytest.mark.parametrize("grid", ["nan:1:3,0:1:3", "1:inf:3,0:1:3", "1:2:3,0:inf:3"])
def test_sweep_rejects_non_finite_bounds(capsys, grid):
    assert cli.main(["sweep", "--grid", grid]) == 1
    assert "finite" in capsys.readouterr().err
