import re

import numpy as np
import pytest

from bifluid import (ClosureParams, FieldInit, GasPairModel, Grid1D, InitialConditions,
                     MixtureState, Scenario, div, grad, material_derivative, step)
from bifluid.cli import SNAPSHOT_HEADER
from bifluid.fields import PRIMITIVES


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid1D(3, 1.0)
    with pytest.raises(ValueError):
        Grid1D(16, 0.0)
    with pytest.raises(ValueError):
        Grid1D(16, -1.0)


def test_grid_geometry():
    g = Grid1D(8, 2.0)
    assert g.dx == 0.25
    x = g.cell_centers()
    assert x.shape == (8,)
    assert x[0] == 0.125
    assert np.allclose(np.diff(x), g.dx)


def test_grad_constant_is_zero():
    g = Grid1D(32, 1.0)
    assert np.all(grad(np.full(32, 3.7), g) == 0.0)


def test_grad_second_order_on_sine():
    errs = []
    for n in (32, 64, 128):
        g = Grid1D(n, 1.0)
        x = g.cell_centers()
        f = np.sin(2 * np.pi * x)
        exact = 2 * np.pi * np.cos(2 * np.pi * x)
        errs.append(np.max(np.abs(grad(f, g) - exact)))
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(orders - 2.0) < 0.1)


def test_grad_shape_mismatch():
    g = Grid1D(8, 1.0)
    with pytest.raises(ValueError):
        grad(np.ones(9), g)


def test_div_matches_grad_in_1d():
    g = Grid1D(16, 1.0)
    f = np.sin(2 * np.pi * g.cell_centers())
    assert np.array_equal(div(f, g), grad(f, g))


def test_material_derivative():
    ft = np.array([1.0, 2.0])
    fx = np.array([3.0, -1.0])
    v = np.array([2.0, 2.0])
    assert np.array_equal(material_derivative(ft, fx, v), [7.0, 0.0])


def test_state_scalar_broadcast_and_derived():
    g = Grid1D(8, 1.0)
    st = MixtureState(g, 1.0, 3.0, 2.0, -1.0, 0.5, -0.2)
    assert st.rho1.shape == (8,)
    assert np.allclose(st.rho, 4.0)
    assert np.allclose(st.concentration, 0.25)
    # rho v = rho1 v1 + rho2 v2
    assert np.allclose(st.v_mean, (1.0 * 2.0 + 3.0 * -1.0) / 4.0)
    assert np.allclose(st.u, -3.0)
    # diffusion fluxes of the two components balance
    j2 = st.rho2 * (st.v2 - st.v_mean)
    assert np.allclose(st.j + j2, 0.0, atol=1e-14)


def test_state_validation():
    g = Grid1D(8, 1.0)
    with pytest.raises(ValueError):
        MixtureState(g, -1.0, 1.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        MixtureState(g, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        MixtureState(g, np.ones(9), 1.0, 0.0, 0.0, 0.0, 0.0)
    bad = np.ones(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        MixtureState(g, 1.0, 1.0, bad, 0.0, 0.0, 0.0)


def test_state_copy_is_independent():
    g = Grid1D(8, 1.0)
    st = MixtureState(g, 1.0, 2.0, 0.0, 0.0, 0.0, 0.0)
    cp = st.copy()
    cp.rho1[:] = 5.0
    assert np.all(st.rho1 == 1.0)


def test_state_rows_are_views_of_one_packed_block():
    g = Grid1D(8, 1.0)
    st = MixtureState(g, 1.0, 2.0, np.arange(8.0), -1.0, 0.5, -0.2)
    assert st.packed.shape == (6, 8)
    for i, name in enumerate(PRIMITIVES):
        row = getattr(st, name)
        assert np.shares_memory(row, st.packed)
        assert np.array_equal(row, st.packed[i])
    assert np.array_equal(st.v1, np.arange(8.0))
    with pytest.raises(AttributeError):
        st.rho1 = np.ones(8)


@pytest.mark.parametrize("shape", [(1,), (9,)])
@pytest.mark.parametrize("index", range(6))
def test_state_rejects_misshaped_field_by_name(index, shape):
    values = [1.0, 2.0, 0.0, 0.0, 0.0, 0.0]
    values[index] = np.ones(shape)
    with pytest.raises(ValueError, match="^" + re.escape(f"{PRIMITIVES[index]}: shape {shape}")):
        MixtureState(Grid1D(8, 1.0), *values)


def test_state_names_first_nonfinite_field_and_nonpositive_density_cell():
    g = Grid1D(8, 1.0)
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(ValueError, match="^v1: field contains non-finite entries"):
        MixtureState(g, 1.0, 1.0, bad, np.inf, 0.0, 0.0)
    rho2 = np.ones(8)
    rho2[5] = -0.5
    with pytest.raises(ValueError, match="rho2 = -0.5 at cell 5"):
        MixtureState(g, 1.0, rho2, 0.0, 0.0, 0.0, 0.0)


def test_state_names_the_first_nonfinite_cell_of_the_field():
    # s2 is bad at a lower cell than v1, but v1 is the first field named
    u = np.ones((6, 8))
    u[2, 5], u[5, 0] = np.nan, np.inf
    with pytest.raises(ValueError, match=re.escape(
            "v1: field contains non-finite entries: v1 = nan at cell 5") + "$"):
        MixtureState(Grid1D(8, 1.0), packed=u)


def test_state_takes_over_a_packed_array_after_the_same_checks():
    g = Grid1D(8, 1.0)
    u = np.stack([np.full(8, v) for v in (1.0, 2.0, 0.0, 0.0, 0.5, -0.2)])
    st = MixtureState(g, packed=u)
    assert st.packed is u and np.shares_memory(st.rho2, u)
    bad = u.copy()
    bad[4, 3] = np.inf
    with pytest.raises(ValueError, match="^s1: field contains non-finite entries"):
        MixtureState(g, packed=bad)
    bad = u.copy()
    bad[1, 5] = -0.5
    with pytest.raises(ValueError, match="rho2 = -0.5 at cell 5"):
        MixtureState(g, packed=bad)
    for wrong in (u[:, :7], u.astype(np.float32), u[:5]):
        with pytest.raises(TypeError, match="packed= takes a float64 array of shape"):
            MixtureState(g, packed=wrong)
    with pytest.raises(TypeError, match="packed= takes .* and no fields"):
        MixtureState(g, 1.0, packed=u)
    with pytest.raises(TypeError, match="takes the fields rho1, rho2"):
        MixtureState(g, 1.0, 2.0)


def test_step_result_does_not_alias_its_input():
    init = InitialConditions(*(FieldInit(bg, 0.01) for bg in (1.0, 2.0, 0.0, 0.0, 0.0, 0.1)))
    sc = Scenario(Grid1D(16, 1.0), GasPairModel(1.0, 0.5, 1.5, 2.5), ClosureParams(),
                  init, dt=1e-4, t_end=1e-3)
    before = sc.initial_state.packed.copy()
    out = step(sc.initial_state, sc)
    out.rho1[:] = 7.0
    out.packed[2:] = 0.0
    assert np.array_equal(sc.initial_state.packed, before)


def test_snapshot_columns_follow_packed_row_order():
    # the simulate writer emits *state.packed as columns 2-7
    assert tuple(SNAPSHOT_HEADER.split(",")[2:8]) == PRIMITIVES
