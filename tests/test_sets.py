import json
import math
import warnings

import numpy as np
import pytest

from aamr import (AffineSubspace, Ball, Box, Diagonal, DimensionMismatchError,
                  Halfspace, Hyperplane, LinearSubspace, NoOracleError,
                  ProblemFormatError, ProductSet, Translate, dump_problem,
                  full_space, load_problem, project,
                  geometry, project_intersection_oracle, random_subspace_pair,
                  zero_subspace)
from aamr.sets import _conform, as_vector
from conftest import VARIANTS, complement_stack, make_variant, scaled_set, shifted_set


def norm(v):
    return float(np.linalg.norm(v))


# --- example projections -----------------------------------------------------

def test_ball_interior_point_is_fixed():
    ball = Ball((1.0, 1.0), 1.0)
    assert np.array_equal(project(ball, [1.0, 1.0]), [1.0, 1.0])


def test_ball_exterior_matches_radial_formula():
    ball = Ball((1.0, 1.0), 1.0)
    x = np.array([1.0, -1.0])
    # independent route: center + radius * (x - center)/|x - center|
    expected = np.array([1.0, 1.0]) + 1.0 * (x - [1.0, 1.0]) / 2.0
    got = project(ball, x)
    assert np.allclose(got, expected, atol=1e-15)
    assert np.allclose(got, [1.0, 0.0], atol=1e-15)


def test_ball_degenerate_radius_and_center():
    point = Ball((2.0, 3.0), 0.0)
    assert np.allclose(project(point, [5.0, 5.0]), [2.0, 3.0])
    ball = Ball((1.0, 1.0), 2.0)
    assert np.array_equal(project(ball, [1.0, 1.0]), [1.0, 1.0])


def test_subspace_coordinate_projection():
    line = LinearSubspace([[1.0], [0.0]])
    assert np.allclose(project(line, [3.0, 4.0]), [3.0, 0.0])


def test_halfspace_projection_formula():
    hs = Halfspace([1.0, 0.0], 0.0)
    # x - max(0, <a,x> - b) a/|a|^2 gives (0, 3)
    assert np.allclose(project(hs, [2.0, 3.0]), [0.0, 3.0])
    assert np.array_equal(project(hs, [-2.0, 3.0]), [-2.0, 3.0])


def test_hyperplane_projects_both_sides():
    hp = Hyperplane([0.0, 2.0], 2.0)
    assert np.allclose(project(hp, [5.0, 7.0]), [5.0, 1.0])
    assert np.allclose(project(hp, [5.0, -7.0]), [5.0, 1.0])


def test_box_clamps():
    box = Box([0.0, 0.0], [1.0, 2.0])
    assert np.allclose(project(box, [-1.0, 3.0]), [0.0, 2.0])


def test_translate_algebraic_identity():
    rng = np.random.default_rng(0)
    inner = Ball(rng.standard_normal(3), 1.2)
    shift = rng.standard_normal(3)
    moved = Translate(inner, shift)
    for _ in range(20):
        x = 3 * rng.standard_normal(3)
        assert np.array_equal(moved.project(x), inner.project(x + shift) - shift)


def test_product_and_diagonal_shapes():
    prod = ProductSet([Box([0.0], [1.0]), Ball([0.0, 0.0], 1.0)])
    assert prod.dim == 3
    out = project(prod, [2.0, 3.0, 4.0])
    assert np.allclose(out[:1], [1.0])
    assert np.allclose(out[1:], np.array([3.0, 4.0]) / 5.0)

    diag = Diagonal(3, 2)
    z = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    got = project(diag, z)
    assert np.allclose(got, np.tile([3.0, 4.0], 3))


def test_diagonal_projection_is_the_tiled_block_mean_bit_for_bit():
    rng = np.random.default_rng(6)
    for _ in range(800):
        r, n = int(rng.integers(1, 9)), int(rng.integers(1, 61))
        diag = Diagonal(r, n)
        x = 10.0 ** rng.uniform(-3, 3) * rng.standard_normal(r * n)
        # zero columns: all -0.0 in one, mixed signs in the other
        x[rng.integers(n)::n] = -0.0
        x[rng.integers(n)::n] = rng.choice([-0.0, 0.0], r)
        mean = np.add.reduce(x.reshape(r, n), axis=0) / r
        got = diag.project(x)
        assert got.tobytes() == np.tile(mean, r).tobytes()
        assert diag.mean(x).tobytes() == mean.tobytes()
        assert got.tobytes() == np.tile(x.reshape(r, n).mean(axis=0), r).tobytes()


def _box_point(rng, lower, upper):
    """A point with entries inside, outside and on the bounds of a box, some
    of them -0.0."""
    n = lower.size
    x = rng.uniform(lower - 1.0, upper + 1.0)
    on = rng.random(n) < 0.2
    x[on] = np.where(rng.random(n) < 0.5, lower, upper)[on]
    x[rng.random(n) < 0.1] = -0.0
    return x


def _random_box(rng, n):
    lower = rng.uniform(-2.0, 0.5, n)
    upper = lower + rng.uniform(0.0, 2.0, n) * (rng.random(n) < 0.8)
    # zero bounds of either sign
    lower[rng.random(n) < 0.1] = -0.0
    upper[rng.random(n) < 0.1] = 0.0
    return Box(np.minimum(lower, upper), upper)


def test_box_product_projects_as_its_factor_loop_bit_for_bit():
    rng = np.random.default_rng(19)
    for _ in range(300):
        r, n = int(rng.integers(1, 5)), int(rng.integers(1, 41))
        boxes = [_random_box(rng, n) for _ in range(r)]
        product = ProductSet(boxes)
        x = np.concatenate([_box_point(rng, b.lower, b.upper) for b in boxes])
        loop = np.concatenate([b.project(x[i * n:(i + 1) * n]) for i, b in enumerate(boxes)])
        clip = np.concatenate([np.clip(x[i * n:(i + 1) * n], b.lower, b.upper)
                               for i, b in enumerate(boxes)])
        got = product.project(x)
        assert got.tobytes() == loop.tobytes() == clip.tobytes()


def test_one_product_shift_is_the_factor_shifts_bit_for_bit():
    rng = np.random.default_rng(23)

    def curved(n):
        kind = rng.integers(3)
        if kind == 0:
            return Ball(rng.standard_normal(n), rng.uniform(0.5, 2.0))
        if kind == 1:
            return Halfspace(rng.standard_normal(n), rng.standard_normal())
        return Hyperplane(rng.standard_normal(n), rng.standard_normal())

    makers = {"box": lambda n: _random_box(rng, n), "curved": curved,
              "mixed": lambda n: (_random_box(rng, n) if rng.random() < 0.5
                                  else curved(n))}
    for family, make in makers.items():
        for _ in range(150):
            r, n = int(rng.integers(1, 5)), int(rng.integers(1, 31))
            sets = [make(n) for _ in range(r)]
            q = rng.standard_normal(n) * 3.0
            q[rng.random(n) < 0.1] = -0.0
            once = Translate(ProductSet(sets), np.tile(q, r))
            each = ProductSet([Translate(s, q) for s in sets])
            x = rng.standard_normal(r * n) * 3.0
            x[rng.random(r * n) < 0.1] = -0.0
            assert once.project(x).tobytes() == each.project(x).tobytes(), family


def test_construction_rejects_degenerate_descriptions():
    with pytest.raises(ValueError):
        Ball((0.0, 0.0), -1.0)
    with pytest.raises(ValueError):
        Halfspace([0.0, 0.0], 1.0)
    with pytest.raises(ValueError):
        Hyperplane([0.0, 0.0, 0.0], 0.0)
    with pytest.raises(ValueError, match="^halfspace offset must be finite, got nan$"):
        Halfspace([1.0, 0.0], float("nan"))
    with pytest.raises(ValueError, match="^hyperplane offset must be finite, got -inf$"):
        Hyperplane([1.0, 0.0], -np.inf)
    with pytest.raises(ValueError):
        Box([0.0, 1.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        ProductSet([])
    with pytest.raises(ValueError):
        Diagonal(0, 3)
    with pytest.raises(ValueError, match="^basis must be a 2-D matrix, got shape \\(3,\\)$"):
        LinearSubspace(np.zeros(3))
    with pytest.raises(ValueError, match="^ambient dimension must be positive$"):
        LinearSubspace(np.zeros((0, 2)))
    # a string or a boolean is not a number
    with pytest.raises(ValueError, match="^radius must be a real number, got str$"):
        Ball([0.0, 0.0], "1.5")
    with pytest.raises(ValueError, match="^radius must be a real number, got bool$"):
        Ball([0.0, 0.0], True)
    with pytest.raises(ValueError, match="^offset must be a real number, got str$"):
        Halfspace([1.0, 0.0], "0")
    with pytest.raises(ValueError, match="^offset must be a real number, got bool$"):
        Hyperplane([1.0, 0.0], True)
    # inside a list vector too, where numpy alone would read "0" and False as 0.0
    with pytest.raises(ValueError, match="^lower entries must be real numbers$"):
        Box(["0", False], [1, 1])
    with pytest.raises(ValueError, match="^upper entries must be real numbers$"):
        Box([0, 0], [1, True])
    with pytest.raises(ValueError, match="^center entries must be real numbers$"):
        Ball(("1", 2.0), 1.0)
    with pytest.raises(ValueError, match="^normal entries must be real numbers$"):
        Halfspace([True, 0.0], 1.0)
    with pytest.raises(ValueError, match="^offset entries must be real numbers$"):
        AffineSubspace(["0", "0"], np.eye(2)[:, :1])
    with pytest.raises(ValueError, match="^shift entries must be real numbers$"):
        Translate(Ball([0.0, 0.0], 1.0), [False, 1.0])
    # and row by row inside a nested-list basis
    with pytest.raises(ValueError, match="^basis entries must be real numbers$"):
        LinearSubspace([["1", True], [0, 0]])
    with pytest.raises(ValueError, match="^basis entries must be real numbers$"):
        AffineSubspace([0, 0], [[False], ["2"]])
    # counts are integers, not truncated floats or booleans
    for args, message in [((2.5, 3), "^copies must be an integer, got 2.5$"),
                          ((True, 3), "^copies must be an integer, got True$"),
                          ((2, 3.0), "^base_dim must be an integer, got 3.0$"),
                          ((2, "3"), "^base_dim must be an integer, got '3'$")]:
        with pytest.raises(ValueError, match=message):
            Diagonal(*args)


def test_construction_takes_numpy_scalars_and_arrays():
    ball = Ball(np.array([0.0, 0.0]), np.float32(1.5))
    plane = Hyperplane(np.array([1, 0]), np.int64(2))
    assert ball.radius == 1.5 and plane.offset == 2.0
    # a list may hold numpy numbers; an array converts as numpy converts it
    box = Box([np.float64(-1.0), np.int32(0)], np.array([True, False]))
    assert box.lower.tolist() == [-1.0, 0.0] and box.upper.tolist() == [1.0, 0.0]
    assert Diagonal(np.int64(2), np.int32(3)).dim == 6
    # a list basis too, row by row
    assert LinearSubspace([[np.float64(2.0)], [np.int32(0)]]).rank == 1
    assert LinearSubspace(np.array([[True], [False]])).rank == 1
    assert np.array_equal(plane.normal, [1.0, 0.0])


def test_dimension_mismatch_raises():
    ball = Ball((0.0, 0.0), 1.0)
    with pytest.raises(DimensionMismatchError):
        project(ball, [1.0, 2.0, 3.0])


def _reference_conform(x, dim):
    """``sets._conform`` as it was before its fast path."""
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatchError(
            f"expected a vector of dimension {dim}, got shape {v.shape}")
    return v


def _reference_as_vector(x, dim=None):
    """``as_vector`` as it was before its one-call finiteness check."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite entries")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected a vector of dimension {dim}, got {v.size}")
    return v


def _outcome(fn, x, *args):
    try:
        return fn(x, *args)
    except Exception as exc:  # the comparison is over the exception raised
        return exc


def _vector_inputs():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", PendingDeprecationWarning)
        matrix = np.matrix([[1.0, 2.0, 3.0]])
    return {"list": [1.0, 2.0, 3.0], "int list": [1, 2, 3], "tuple": (1.0, -0.0, 3.0),
            "float64": np.array([1.0, 2.0, 3.0]), "int": np.arange(3),
            "float32": np.array([0.1, 0.2, 0.3], dtype=np.float32),
            "big-endian": np.array([1.5, 2.0, 3.0], dtype=">f8"),
            "strided": np.arange(6.0)[::2], "read-only": np.array([1.0, 2.0, 3.0]),
            "0-d": np.array(2.0), "float": 2.0, "python int": 3,
            "row": np.ones((1, 3)), "column": np.ones((3, 1)), "matrix": matrix,
            "long": np.ones(4), "short": np.ones(2), "empty": np.ones(0),
            "nan": [1.0, math.nan, 3.0], "inf": np.array([1.0, math.inf, 2.0])}


def test_vector_coercions_convert_and_reject_as_before():
    for label, x in _vector_inputs().items():
        if label == "read-only":
            x.flags.writeable = False
        for fn, ref, args in ((_conform, _reference_conform, (3,)),
                              (_conform, _reference_conform, (4,)),
                              (as_vector, _reference_as_vector, ()),
                              (as_vector, _reference_as_vector, (3,))):
            got, want = _outcome(fn, x, *args), _outcome(ref, x, *args)
            case = (label, fn.__name__, args)
            if isinstance(want, Exception):
                assert type(got) is type(want) and str(got) == str(want), case
                continue
            assert type(got) is np.ndarray and got.dtype == want.dtype, case
            assert got.shape == want.shape and got.tobytes() == want.tobytes(), case
            # a float vector of the right length comes back as it is
            assert (got is x) == (want is x), case


# --- projector identities over all variants ----------------------------------

def _variant_instances(samples_per_variant=4, n=5, seed=123):
    rng = np.random.default_rng(seed)
    for kind in VARIANTS:
        for _ in range(samples_per_variant):
            point = rng.standard_normal(n)
            yield make_variant(kind, rng, n, point), rng


def test_idempotence_and_firm_nonexpansiveness():
    rng = np.random.default_rng(7)
    for kind in VARIANTS:
        count = 0
        for _ in range(10):
            s = make_variant(kind, rng, 5, rng.standard_normal(5))
            for _ in range(100):
                x = 4 * rng.standard_normal(5)
                y = 4 * rng.standard_normal(5)
                px, py = s.project(x), s.project(y)
                assert norm(s.project(px) - px) <= 1e-10 * (1 + norm(x))
                assert (x - y) @ (px - py) >= norm(px - py) ** 2 - 1e-10
                count += 1
        assert count >= 1000


def test_ray_invariance():
    rng = np.random.default_rng(8)
    for s, _ in _variant_instances(seed=8):
        for _ in range(5):
            x = 4 * rng.standard_normal(s.dim)
            px = s.project(x)
            for lam in (0.0, 0.5, 1.0, 2.0, 10.0):
                back = s.project(px + lam * (x - px))
                assert norm(back - px) <= 1e-10 * (1 + norm(x))


def test_translation_identity_concrete_sets():
    rng = np.random.default_rng(9)
    for s, _ in _variant_instances(seed=9):
        y = rng.standard_normal(s.dim)
        moved = shifted_set(s, y)
        for _ in range(5):
            x = 4 * rng.standard_normal(s.dim)
            assert norm(moved.project(x) - (y + s.project(x - y))) <= 1e-10


def test_scaling_identity_concrete_sets():
    rng = np.random.default_rng(10)
    for s, _ in _variant_instances(seed=10):
        for lam in (-2.0, -1.0, 0.5, 3.0):
            scaled = scaled_set(s, lam)
            for _ in range(4):
                x = 3 * rng.standard_normal(s.dim)
                assert norm(scaled.project(lam * x) - lam * s.project(x)) <= 1e-10


def _grid_argmin(candidates, x):
    d = np.linalg.norm(candidates - x, axis=1)
    return candidates[int(np.argmin(d))], float(d.min())


def test_product_projection_against_grid_search():
    box = Box([-1.0, -1.0], [1.0, 1.0])
    ball = Ball([0.5, 0.0], 1.0)
    prod = ProductSet([box, ball])
    lin = np.linspace(-1.6, 1.6, 33)
    mesh = np.stack(np.meshgrid(lin, lin), axis=-1).reshape(-1, 2)
    cand_box = mesh[np.all(np.abs(mesh) <= 1.0, axis=1)]
    cand_ball = mesh[np.linalg.norm(mesh - [0.5, 0.0], axis=1) <= 1.0]
    joint = np.concatenate(
        [np.repeat(cand_box, len(cand_ball), axis=0),
         np.tile(cand_ball, (len(cand_box), 1))], axis=1)
    rng = np.random.default_rng(11)
    for _ in range(5):
        x = 3 * rng.standard_normal(4)
        best, _ = _grid_argmin(joint, x)
        got = prod.project(x)
        assert norm(got - best) <= 0.2  # grid resolution
        assert norm(x - got) <= norm(x - best) + 1e-12


def test_diagonal_projection_against_grid_search():
    diag = Diagonal(3, 2)
    lin = np.linspace(-2.0, 2.0, 41)
    base = np.stack(np.meshgrid(lin, lin), axis=-1).reshape(-1, 2)
    candidates = np.tile(base, (1, 3))
    rng = np.random.default_rng(12)
    for _ in range(5):
        x = rng.standard_normal(6)
        best, _ = _grid_argmin(candidates, x)
        got = diag.project(x)
        assert norm(got - best) <= 0.15
        assert norm(x - got) <= norm(x - best) + 1e-12


# --- intersection oracle ------------------------------------------------------

def test_oracle_boxes():
    boxes = [Box([0.0, 0.0], [2.0, 2.0]), Box([1.0, 1.0], [3.0, 3.0])]
    assert np.allclose(project_intersection_oracle(boxes, [0.0, 0.0]), [1.0, 1.0])


def test_oracle_two_subspaces():
    u = LinearSubspace(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
    v = LinearSubspace(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
    got = project_intersection_oracle([u, v], [1.0, 2.0, 3.0])
    assert np.allclose(got, [0.0, 2.0, 0.0], atol=1e-12)


def test_oracle_single_set_reduces_to_projection():
    ball = Ball([0.0, 1.0], 0.5)
    x = np.array([2.0, 1.0])
    assert np.allclose(project_intersection_oracle([ball], x), ball.project(x))


def test_oracle_affine_family_variational_inequality():
    rng = np.random.default_rng(13)
    n = 6
    y = rng.standard_normal(n)
    fams = [AffineSubspace(y, rng.standard_normal((n, 4))),
            AffineSubspace(y, rng.standard_normal((n, 4))),
            Hyperplane(rng.standard_normal(n), 0.0)]
    fams[2] = Hyperplane(fams[2].normal, float(fams[2].normal @ y))
    x = 5 * rng.standard_normal(n)
    p = project_intersection_oracle(fams, x)
    for s in fams:
        assert s.distance(p) <= 1e-8
    # optimality: <c - p, x - p> <= 0 for members c of the intersection;
    # sample members by projecting random points through the oracle
    for _ in range(50):
        c = project_intersection_oracle(fams, 5 * rng.standard_normal(n))
        assert (c - p) @ (x - p) <= 1e-8


def test_oracle_rejects_unsupported_family():
    with pytest.raises(NoOracleError):
        project_intersection_oracle([Ball([0.0], 1.0), Box([0.0], [1.0])], [0.5])


def test_oracle_rejection_names_every_family_it_takes():
    with pytest.raises(NoOracleError) as caught:
        project_intersection_oracle([Ball([0.0], 1.0), Hyperplane([1.0], 0.0)], [0.5])
    assert str(caught.value).endswith(
        "a single set, all boxes, or all linear/affine subspaces and hyperplanes")


def test_oracle_collapses_boxes_crossed_within_the_tolerance_to_their_midpoint():
    lo, hi = 1.0 + 1e-12, 1.0
    boxes = [Box([0.0, 0.0], [hi, 2.0]), Box([lo, 0.5], [2.0, 3.0])]
    for x in ([-5.0, 0.0], [5.0, 9.0]):
        got = project_intersection_oracle(boxes, x)
        assert got[0] == 0.5 * (lo + hi)
        assert got[1] == np.clip(x[1], 0.5, 2.0)


def test_oracle_empty_box_intersection():
    with pytest.raises(ValueError):
        project_intersection_oracle(
            [Box([0.0], [1.0]), Box([2.0], [3.0])], [0.5])


def test_oracle_rejects_no_sets_mixed_dimensions_and_empty_affine_families():
    with pytest.raises(ValueError, match="need at least one set"):
        project_intersection_oracle([], [0.5])
    with pytest.raises(DimensionMismatchError, match="mixed ambient dimensions"):
        project_intersection_oracle([Box([0.0], [1.0]), full_space(2)], [0.5])
    with pytest.raises(ValueError, match="affine family has empty intersection"):
        project_intersection_oracle([Hyperplane([1.0, 0.0], 0.0),
                                     Hyperplane([1.0, 0.0], 1.0)], [0.5, 0.5])


def _stack_oracle(sets, x):
    """Reference route of the affine oracle: the normal-space projectors
    I - Qi Qi.T of every set stacked by rows (a hyperplane's Q is the
    complement basis of its unit normal), the stack's least-squares solution
    the common point and its null space the meet."""
    n = len(x)
    parts = []
    for s in sets:
        if isinstance(s, Hyperplane):
            unit = s.normal / np.linalg.norm(s.normal)
            Q = geometry.orthonormal_columns(complement_stack([unit[:, None]]))
            parts.append(((s.offset / (s.normal @ s.normal)) * s.normal, Q))
        elif isinstance(s, AffineSubspace):
            parts.append((s.offset, s.direction.basis))
        else:
            parts.append((np.zeros(n), s.basis))
    stacked = complement_stack([Q for _, Q in parts])
    blocks = stacked.reshape(len(parts), n, n)
    rhs = np.concatenate([C @ y for C, (y, _) in zip(blocks, parts)])
    point, *_ = np.linalg.lstsq(stacked, rhs, rcond=None)
    scale = 1.0 + max(norm(y) for y, _ in parts)
    if norm(stacked @ point - rhs) > 1e-8 * scale:
        raise ValueError("affine family has empty intersection")
    meet, _ = geometry._null_directions(stacked)
    return point + meet @ (meet.T @ (x - point))


def _oracle_family(kind, n, rng):
    """A seeded affine-like family of ``kind`` in R^n with a nonempty
    intersection."""
    point = rng.standard_normal(n)
    seed = int(rng.integers(2**31))

    def pair(key):
        p = random_subspace_pair(n, [seed, key], target_angle_interval=(0.4, 1.2))
        return LinearSubspace(p.basis_u), LinearSubspace(p.basis_v)

    def plane():
        a = rng.standard_normal(n)
        return Hyperplane(a, float(a @ point))

    def through(u):  # offset from the common point along its own directions
        return AffineSubspace(point + u.basis @ rng.standard_normal(u.rank), u)

    if kind == "subspace-pair":
        return list(pair(0))
    if kind == "subspace-triple":
        return [*pair(0), pair(1)[0]]
    if kind == "affine-pair":
        return [through(u) for u in pair(0)]
    if kind == "affine-triple":
        return [through(u) for u in (*pair(0), pair(1)[1])]
    if kind == "affine-hyperplane":
        return [through(LinearSubspace(rng.standard_normal((n, max(1, n // 2))))), plane()]
    if kind == "hyperplane-first":
        return [plane(), *map(through, pair(0))]
    if kind == "hyperplanes":
        return [plane() for _ in range(min(3, n))]
    if kind == "zero-subspace":
        return [pair(0)[0], zero_subspace(n), Hyperplane(rng.standard_normal(n), 0.0)]
    if kind == "full-space":
        return [full_space(n), pair(0)[1], plane()]
    if kind == "coincident":
        u, _ = pair(0)
        return [u, LinearSubspace(u.basis[:, ::-1])]
    raise ValueError(kind)


@pytest.mark.parametrize("n", [3, 10, 50, 200])
@pytest.mark.parametrize("kind", [
    "subspace-pair", "subspace-triple", "affine-pair", "affine-triple",
    "affine-hyperplane", "hyperplane-first", "hyperplanes", "zero-subspace",
    "full-space", "coincident"])
def test_oracle_matches_the_tall_stack_route(kind, n):
    rng = np.random.default_rng([33, n, len(kind)])
    sets = _oracle_family(kind, n, rng)
    for _ in range(3):
        x = 3.0 * rng.standard_normal(n)
        got = project_intersection_oracle(sets, x)
        assert norm(got - _stack_oracle(sets, x)) <= 1e-12 * (1.0 + norm(x))
        for s in sets:
            assert s.distance(got) <= 1e-10 * (1.0 + norm(x))


@pytest.mark.parametrize("sets", [
    [Hyperplane([1.0, 2.0, 0.0], 1.0), Hyperplane([-2.0, -4.0, 0.0], 1.0)],
    [AffineSubspace([0.0, 0.0, 0.0], [[1.0], [0.0], [0.0]]),   # skew lines
     AffineSubspace([0.0, 0.0, 1.0], [[0.0], [1.0], [0.0]])],
    [AffineSubspace([0.0, 0.0, 0.0], [[1.0], [1.0], [0.0]]),   # parallel lines
     AffineSubspace([0.0, 1.0, 0.0], [[2.0], [2.0], [0.0]])],
    [AffineSubspace([0.0, 0.0, 0.0], [[1.0], [0.0], [0.0]]),   # line off a plane
     Hyperplane([1.0, 0.0, 1.0], 0.0), Hyperplane([0.0, 0.0, 1.0], 1.0)],
], ids=["parallel-hyperplanes", "skew-lines", "parallel-lines", "line-and-planes"])
def test_oracle_rejects_disjoint_affine_families_as_the_stack_route_does(sets):
    x = np.array([0.5, -1.0, 2.0])
    for route in (project_intersection_oracle, _stack_oracle):
        with pytest.raises(ValueError, match="affine family has empty intersection"):
            route(sets, x)


# --- problem files ------------------------------------------------------------

def test_load_problem_all_spec_types(tmp_path):
    doc = {
        "dim": 2,
        "sets": [
            {"type": "ball", "center": [1.0, 1.0], "radius": 1.0},
            {"type": "subspace", "basis": [[1.0, 0.0]]},
            {"type": "halfspace", "a": [1.0, 0.0], "b": 0.5},
            {"type": "box", "lower": [0.0, 0.0], "upper": [1.0, 1.0]},
            {"type": "hyperplane", "a": [1.0, 2.0], "b": -0.5},
            {"type": "affine", "offset": [0.3, -1.0], "basis": [[1.0, 1.0]]},
        ],
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc))
    dim, sets = load_problem(path)
    assert dim == 2
    assert [type(s) for s in sets] == [Ball, LinearSubspace, Halfspace, Box,
                                       Hyperplane, AffineSubspace]
    assert sets[1].rank == 1
    # round trip, through JSON text: every set keeps its type and projector
    again = dump_problem(dim, sets)
    dim2, sets2 = load_problem(json.dumps(again))
    assert dim2 == 2
    assert [type(s) for s in sets2] == [type(s) for s in sets]
    points = 3.0 * np.random.default_rng(3).standard_normal((20, 2))
    for s, s2 in zip(sets, sets2):
        for x in points:
            assert np.allclose(s.project(x), s2.project(x), rtol=0, atol=1e-12)


def test_load_problem_diagnostics_name_fields():
    with pytest.raises(ProblemFormatError, match=r"sets\[0\]\.radius"):
        load_problem({"dim": 2, "sets": [{"type": "ball", "center": [0, 0]}]})
    with pytest.raises(ProblemFormatError, match=r"sets\[0\]\.center"):
        load_problem({"dim": 2, "sets": [{"type": "ball", "center": [0], "radius": 1}]})
    with pytest.raises(ProblemFormatError, match=r"sets\[1\]\.basis\[0\]"):
        load_problem({"dim": 2, "sets": [
            {"type": "box", "lower": [0, 0], "upper": [1, 1]},
            {"type": "subspace", "basis": [[1.0, 0.0, 9.0]]}]})
    with pytest.raises(ProblemFormatError, match="dim"):
        load_problem({"dim": -2, "sets": [{"type": "ball", "center": [0], "radius": 1}]})
    with pytest.raises(ProblemFormatError, match="type"):
        load_problem({"dim": 1, "sets": [{"type": "pyramid"}]})
    with pytest.raises(ProblemFormatError, match=r"sets\[0\]"):
        load_problem({"dim": 2, "sets": [{"type": "ball", "center": [0.0, 0.0],
                                          "radius": -3.0}]})


@pytest.mark.parametrize("source, message", [
    ("{not json", "invalid JSON"),
    ({"dim": 2, "sets": []}, "sets: expected a nonempty list"),
    ({"dim": 2, "sets": [[1, 2]]}, r"sets\[0\]: expected an object"),
    ({"dim": 2, "sets": [{"type": "ball", "center": [0, 0], "radius": "1"}]},
     r"sets\[0\]\.radius: expected a number"),
    ({"dim": 2, "sets": [{"type": "subspace", "basis": 1.0}]},
     r"sets\[0\]\.basis: expected a list of rows"),
    # a string or a boolean is not a number, inside a vector or a basis too
    ({"dim": 2, "sets": [{"type": "ball", "center": ["1", True], "radius": 1.0}]},
     r"^sets\[0\]\.center: expected a number$"),
    ({"dim": 2, "sets": [{"type": "subspace", "basis": [["1", "0"]]}]},
     r"^sets\[0\]\.basis\[0\]: expected a number$"),
    ({"dim": 2, "sets": [{"type": "box", "lower": [False, "-1"], "upper": [1, 1]}]},
     r"^sets\[0\]\.lower: expected a number$"),
    ({"dim": 2, "sets": [{"type": "affine", "offset": [0, 0], "basis": [[1, True]]}]},
     r"^sets\[0\]\.basis\[0\]: expected a number$"),
    ({"dim": 2, "sets": [{"type": "halfspace", "a": [1, 0], "b": False}]},
     r"^sets\[0\]\.b: expected a number$"),
    ({"dim": 1, "sets": [{"type": ["ball"]}]}, r"sets\[0\]\.type: unknown set type \['ball'\]"),
    ({"dim": 1, "sets": [{"type": 3}]}, r"sets\[0\]\.type: unknown set type 3"),
    ({"dim": 1, "sets": [{"type": None}]}, r"sets\[0\]\.type: unknown set type None"),
    ('{"dim": 2, "sets": [{"type": "halfspace", "a": [1.0, 0.0], "b": NaN}]}',
     r"^sets\[0\]: halfspace offset must be finite, got nan$"),
    ('{"dim": 2, "sets": [{"type": "hyperplane", "a": [1.0, 0.0], "b": Infinity}]}',
     r"^sets\[0\]: hyperplane offset must be finite, got inf$"),
    # JSON integers too large for a float
    ({"dim": 1, "sets": [{"type": "ball", "center": [0], "radius": 10**400}]},
     r"^sets\[0\]\.radius: int too large to convert to float$"),
    ({"dim": 1, "sets": [{"type": "ball", "center": [10**400], "radius": 1}]},
     r"^sets\[0\]\.center: int too large to convert to float$"),
    ({"dim": 1, "sets": [{"type": "subspace", "basis": [[10**400]]}]},
     r"^sets\[0\]\.basis\[0\]: int too large to convert to float$"),
    ({"dim": 1, "sets": [{"type": "halfspace", "a": [1], "b": 10**400}]},
     r"^sets\[0\]\.b: int too large to convert to float$"),
    # dimensions no numpy array can have
    ({"dim": 10**400, "sets": [{"type": "subspace", "basis": []}]},
     rf"^dim: too large for an array \(at most {np.iinfo(np.intp).max // 8}\)$"),
    ({"dim": 2**63, "sets": [{"type": "subspace", "basis": []}]},
     rf"^dim: too large for an array \(at most {np.iinfo(np.intp).max // 8}\)$"),
], ids=["text", "no-sets", "entry", "radius", "basis", "string-center", "string-basis",
        "bool-lower", "bool-basis", "bool-offset", "type-list", "type-number",
        "type-null", "nan-offset", "inf-offset", "huge-radius", "huge-center",
        "huge-basis", "huge-offset", "huge-dim", "dim-2**63"])
def test_load_problem_rejects_malformed_documents(source, message):
    with pytest.raises(ProblemFormatError, match=message):
        load_problem(source)


def test_load_problem_takes_the_largest_array_dimension():
    # the bound is numpy's own: one more and an empty basis cannot be built
    limit = np.iinfo(np.intp).max // 8
    dim, (s,) = load_problem({"dim": limit, "sets": [{"type": "subspace", "basis": []}]})
    assert dim == s.dim == limit and s.rank == 0
    with pytest.raises(ValueError):
        np.zeros((limit + 1, 0))


@pytest.mark.parametrize("text, message", [
    ('{"dim": 2, "sets": [', "invalid JSON"),
    ("[1, 2]", "top level: expected an object"),
], ids=["json", "top-level"])
def test_load_problem_rejects_malformed_files(tmp_path, text, message):
    path = tmp_path / "problem.json"
    path.write_text(text)
    with pytest.raises(ProblemFormatError, match=message):
        load_problem(path)


def test_load_problem_empty_basis_is_the_zero_subspace():
    dim, (s,) = load_problem({"dim": 3, "sets": [{"type": "subspace", "basis": []}]})
    assert (dim, s.rank) == (3, 0)
    assert np.array_equal(s.project([1.0, 2.0, 3.0]), np.zeros(3))


def test_dump_problem_rejects_a_translate():
    with pytest.raises(ValueError, match="cannot serialize set of type Translate"):
        dump_problem(1, [Translate(Box([0.0], [1.0]), [2.0])])


def test_full_and_zero_subspace_helpers():
    assert np.array_equal(project(full_space(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])
    assert np.array_equal(project(zero_subspace(3), [1.0, 2.0, 3.0]), [0.0, 0.0, 0.0])
