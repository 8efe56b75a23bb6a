import json
import math
from fractions import Fraction as F

import pytest

from lienorm.defsets import (
    BoundaryFn,
    CallableBoundary,
    Compose,
    DefSet,
    DegenerateSetError,
    Linear,
    Min,
    Power,
    UnsupportedShapeError,
    boundary_from_dict,
    contains,
    convolve,
    defset_of_exponential,
    defset_of_product,
    downset_hull,
    is_idempotent_on_grid,
    tangent_slope_at_origin,
)


def grid(n=40, S=1.0):
    return [((i + 1) * S / n, (j + 1) * S / n) for i in range(n) for j in range(n)]


class TestContains:
    def test_cone(self):
        A = DefSet.cone(2)
        assert A.contains(1, 0.4)
        assert not A.contains(1, 0.6)

    def test_square_map_set(self):
        A = DefSet.square_map()
        assert A.contains(0.25, 0.4)
        assert not A.contains(0.25, 0.55)

    def test_translation_set(self):
        A = DefSet.translation(0.3)
        assert not A.contains(1, 0.8)
        assert A.contains(1, 0.65)

    def test_closed_diagonal_includes_boundary(self):
        D = DefSet.closed_subdiagonal()
        assert D.contains(0.5, 0.5)
        assert not D.contains(0.4, 0.5)

    def test_open_diagonal_excludes_boundary(self):
        assert not DefSet.open_diagonal().contains(0.5, 0.5)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            DefSet.cone(2).contains(1.5, 0.1)
        with pytest.raises(ValueError):
            DefSet.cone(2).contains(0.5, 0)


class TestConvolve:
    def test_cones_multiply(self):
        got = convolve(DefSet.cone(F(3, 2)), DefSet.cone(F(4, 3)))
        assert got.boundary == Linear(F(1, 2), 0)

    def test_closed_diagonal_is_unit(self):
        A = DefSet.cone(3)
        assert convolve(A, DefSet.closed_subdiagonal()).boundary == A.boundary
        assert convolve(DefSet.closed_subdiagonal(), A).boundary == A.boundary

    def test_linear_after_power_stays_a_power(self):
        got = convolve(DefSet(Power(1, F(1, 2))), DefSet(Linear(2, 0)))
        assert got.boundary == Power(2, F(1, 2))

    def test_square_roots_compose(self):
        got = convolve(DefSet.square_map(), DefSet.square_map())
        assert got.boundary == Power(1, F(1, 4))

    def test_matches_pointwise_semantics(self):
        # (t, r) in A*B iff exists s: (t,s) in A and (s,r) in B
        A = DefSet(Linear(F(1, 2), 0))
        B = DefSet(Power(1, F(1, 2)))
        C = convolve(A, B)
        for t, r in grid(25):
            if abs(r - C.boundary(t)) < 1e-9:
                continue  # float ties exactly on the boundary are moot
            direct = C.contains(t, r)
            witness = any(
                A.contains(t, s) and B.contains(s, r)
                for s in [k / 4000 for k in range(1, 4000)]
            )
            assert direct == witness, (t, r)

    def test_associativity_on_grid(self):
        A = DefSet(Linear(F(2, 3), 0))
        B = DefSet(Power(1, F(1, 2)))
        C = DefSet(Linear(1, F(-1, 10)))
        left = convolve(convolve(A, B), C)
        right = convolve(A, convolve(B, C))
        for t, s in grid(30):
            assert left.contains(t, s) == right.contains(t, s)

    def test_pseudo_inverse_scaling_pair(self):
        # boundaries t/alpha and alpha t convolve to the identity boundary
        alpha = F(5, 2)
        A = DefSet(Linear(1 / alpha, 0))
        B = DefSet(Linear(alpha, 0))
        assert convolve(A, B).boundary == Linear(F(1), 0)
        assert convolve(B, A).boundary == Linear(F(1), 0)


class TestIdempotents:
    def test_open_diagonal(self):
        assert is_idempotent_on_grid(DefSet.open_diagonal(), grid())

    def test_closed_diagonal(self):
        assert is_idempotent_on_grid(DefSet.closed_subdiagonal(), grid())

    def test_cone_is_not(self):
        assert not is_idempotent_on_grid(DefSet.cone(2), grid())

    def test_boundary_fixed_points_are_idempotent(self):
        # f(f(t)) = f(t) on the grid makes the upset-style set idempotent
        half = DefSet(Min(Linear(1, 0), CallableBoundary(lambda t: min(t, 0.5))))
        pts = grid(20)
        f = half.boundary
        assert all(abs(f(f(t)) - f(t)) < 1e-15 for t, _ in pts)
        assert is_idempotent_on_grid(half, pts)


class TestExponentialSets:
    def test_translation_norm(self):
        lam = 0.1
        A = defset_of_exponential(math.e * lam)
        assert A.boundary == Linear(1, -math.e * lam)
        assert A.contains(0.9, 0.5)
        assert not A.contains(0.9, 0.7)

    def test_linear_slope_norm(self):
        A = defset_of_exponential((0, F(1, 4)))
        assert A.boundary == Linear(F(3, 4), 0)

    def test_zero_norm_gives_diagonal(self):
        A = defset_of_exponential(0)
        assert A.boundary == Linear(1, 0)

    def test_callable_norm(self):
        A = defset_of_exponential(lambda t: 0.5 * t * t)
        assert A.contains(0.5, 0.3)
        assert not A.contains(1.0, 0.6)

    def test_slope_one_degenerate(self):
        with pytest.raises(DegenerateSetError):
            defset_of_exponential((0, 1))

    @pytest.mark.parametrize("norm, error, message", [
        (-0.1, ValueError, "operator norm must be >= 0"),
        ((F(-1, 4), 0), ValueError, "affine norm coefficients must be >= 0"),
        ((0, -0.5), ValueError, "affine norm coefficients must be >= 0"),
        ("1/2", UnsupportedShapeError, "cannot interpret norm description"),
    ], ids=["negative-norm", "negative-c0", "negative-c1", "string"])
    def test_rejected_norms(self, norm, error, message):
        with pytest.raises(error, match="^" + message) as exc:
            defset_of_exponential(norm)
        assert exc.type is error


class TestCone:
    @pytest.mark.parametrize("alpha", [0, F(-1, 2), -1.0], ids=["0", "-1/2", "-1.0"])
    def test_needs_positive_alpha(self, alpha):
        with pytest.raises(ValueError, match="^cone needs alpha > 0$"):
            DefSet.cone(alpha)


class TestProductSets:
    def test_single_factor(self):
        assert defset_of_product([F(1, 4)]).boundary == Linear(F(3, 4), 0)

    def test_two_halves(self):
        assert defset_of_product([F(1, 2), F(1, 2)]).boundary == Linear(F(1, 4), 0)

    def test_empty_is_diagonal(self):
        assert defset_of_product([]).boundary == Linear(F(1), 0)

    def test_factor_at_one_rejected(self):
        with pytest.raises(DegenerateSetError):
            defset_of_product([F(1, 2), 1])


class TestDownsetHull:
    def test_cone_unchanged(self):
        A = DefSet.cone(F(7, 3))
        assert downset_hull(A).boundary == A.boundary

    def test_diagonal_unchanged(self):
        assert downset_hull(DefSet.open_diagonal()).boundary == Linear(1, 0)

    def test_out_of_grammar_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            downset_hull(("point", (0.5, 0.25)))
        with pytest.raises(UnsupportedShapeError):
            contains({"pts": [(1, 1)]}, 0.5, 0.25)


class TestTangentSlope:
    def test_closed_subdiagonal(self):
        assert tangent_slope_at_origin(DefSet.closed_subdiagonal()) == 1.0

    def test_linear_boundaries(self):
        got = convolve(DefSet(Linear(0.5, 0)), DefSet(Linear(0.75, 0)))
        assert tangent_slope_at_origin(got) == pytest.approx(0.375, abs=1e-9)

    def test_curved_boundaries(self):
        alpha, beta = 0.6, 0.7
        A = DefSet(CallableBoundary(lambda t: alpha * t + 0.8 * t * t))
        B = DefSet(CallableBoundary(lambda t: beta * t + 0.3 * t * t))
        got = tangent_slope_at_origin(convolve(A, B))
        assert got == pytest.approx(alpha * beta, abs=1e-6)


class TestSerialization:
    def test_linear_round_trip(self):
        A = DefSet(Linear(F(1, 3), F(-1, 8)))
        back = DefSet.from_dict(A.to_dict())
        assert back.boundary == A.boundary

    def test_composed_round_trip(self):
        A = DefSet(Compose(Power(1, F(1, 2)), Linear(2, 0)))
        back = DefSet.from_dict(A.to_dict())
        for t in (0.1, 0.4, 0.9):
            assert back.boundary(t) == A.boundary(t)

    def test_closed_diagonal_round_trip(self):
        D = DefSet.closed_subdiagonal()
        assert DefSet.from_dict(D.to_dict()).boundary is None

    def test_from_dict_accepts_only_the_unit_square(self):
        doc = DefSet.cone(2).to_dict()
        assert doc["S"] == 1.0
        assert DefSet.from_dict(doc).boundary == Linear(F(1, 2), 0)
        with pytest.raises(ValueError, match="S=2"):
            DefSet.from_dict(dict(doc, S=2))
        with pytest.raises(ValueError):
            DefSet.from_dict({"set": "closed_subdiagonal", "S": 2})

    def test_callable_does_not_serialize(self):
        with pytest.raises(UnsupportedShapeError):
            DefSet(CallableBoundary(lambda t: t)).to_dict()

    def test_unknown_op_rejected(self):
        with pytest.raises(UnsupportedShapeError):
            boundary_from_dict({"op": "spiral"})

    def test_every_op_round_trips(self):
        tree = Min(Compose(Power(F(1, 2), 2), Linear(F(1, 3), F(-1, 8))), Linear(0.5, 0))
        doc = tree.to_dict()
        assert json.dumps(doc) == (
            '{"op": "min", "left": {"op": "compose", '
            '"outer": {"op": "power", "gamma": "1/2", "k": 2}, '
            '"inner": {"op": "linear", "a": "1/3", "c": "-1/8"}}, '
            '"right": {"op": "linear", "a": 0.5, "c": 0}}')
        back = boundary_from_dict(json.loads(json.dumps(doc)))
        assert back == tree and repr(back) == repr(tree)
        assert back.to_dict() == doc


LINEAR = {"op": "linear", "a": 1, "c": 0}


class TestMalformedGrammar:
    """What the reader rejects, with the class the CLI maps to exit 2."""

    @pytest.mark.parametrize("doc, error", [
        pytest.param({"op": "compose", "outer": 1, "inner": 1}, UnsupportedShapeError,
                     id="compose-of-numbers"),
        pytest.param({"op": "compose", "outer": LINEAR, "inner": "1/2"},
                     UnsupportedShapeError, id="compose-of-a-string"),
        pytest.param({"op": "linear", "a": "1/2"}, UnsupportedShapeError,
                     id="linear-without-c"),
        pytest.param([1], UnsupportedShapeError, id="list"),
        pytest.param("linear", UnsupportedShapeError, id="string"),
        pytest.param({"op": ["linear"]}, UnsupportedShapeError, id="unhashable-op"),
        pytest.param({"op": "min", "left": LINEAR}, UnsupportedShapeError,
                     id="min-without-right"),
        pytest.param({"op": "linear", "a": "1/0", "c": 0}, ValueError,
                     id="zero-denominator"),
        pytest.param({"op": "min", "left": LINEAR,
                      "right": {"op": "power", "gamma": 1, "k": "2/0"}},
                     ValueError, id="nested-zero-denominator"),
        pytest.param({"op": "linear", "a": 1, "c": None}, UnsupportedShapeError,
                     id="null-field"),
        pytest.param({"op": "linear", "a": True, "c": 0}, UnsupportedShapeError,
                     id="true-field"),
        pytest.param({"op": "linear", "a": 1, "c": False}, UnsupportedShapeError,
                     id="false-field"),
        pytest.param({"op": "power", "gamma": [1], "k": 1}, UnsupportedShapeError,
                     id="list-field"),
        pytest.param({"op": "linear", "a": math.nan, "c": 0}, UnsupportedShapeError,
                     id="nan-field"),
        pytest.param({"op": "power", "gamma": 1, "k": math.inf}, UnsupportedShapeError,
                     id="infinite-field"),
        pytest.param({"op": "min", "left": LINEAR,
                      "right": {"op": "linear", "a": 1, "c": None}},
                     UnsupportedShapeError, id="nested-null-field"),
    ])
    def test_rejected(self, doc, error):
        with pytest.raises(error) as exc:
            boundary_from_dict(doc)
        assert exc.type is error

    def test_field_error_names_the_op_and_the_field(self):
        with pytest.raises(UnsupportedShapeError,
                           match="^linear boundary field c is no number: None$"):
            boundary_from_dict({"op": "linear", "a": 1, "c": None})

    @pytest.mark.parametrize("doc", [
        pytest.param({"set": "boundary"}, id="boundary-without-boundary"),
        pytest.param({"set": "spiral", "boundary": LINEAR}, id="unknown-set"),
        pytest.param({"boundary": LINEAR}, id="no-set"),
        pytest.param({"set": ["boundary"], "boundary": LINEAR}, id="unhashable-set"),
        pytest.param([{"set": "closed_subdiagonal"}], id="list"),
        pytest.param("closed_subdiagonal", id="string"),
    ])
    def test_set_level_rejected(self, doc):
        with pytest.raises(UnsupportedShapeError, match="^not a definition set: "):
            DefSet.from_dict(doc)

    @pytest.mark.parametrize("cls", [Compose, Min])
    def test_operands_must_be_nodes(self, cls):
        with pytest.raises(UnsupportedShapeError):
            cls(Linear(1, 0), 1)
        with pytest.raises(UnsupportedShapeError):
            cls(0.5, Linear(1, 0))


def _same(got, want):
    """Equal in value and in number type."""
    return type(got) is type(want) and got == want


class TestNumberTypes:
    """Exact inputs give exact parameters; one float makes them float."""

    @pytest.mark.parametrize("alpha, a, wire", [
        (2, F(1, 2), "1/2"),
        (F(3, 2), F(2, 3), "2/3"),
        (F(1, 3), F(3), "3/1"),
        (4.0, 0.25, 0.25),
    ])
    def test_cone(self, alpha, a, wire):
        b = DefSet.cone(alpha).boundary
        assert _same(b.a, a)
        assert b.to_dict() == {"op": "linear", "a": wire, "c": 0}

    @pytest.mark.parametrize("c0, c1, a, c", [
        (F(1, 4), F(1, 2), F(1, 2), F(-1, 4)),
        (1, F(1, 3), F(2, 3), -1),
        (0.25, F(1, 2), F(1, 2), -0.25),
        (F(1, 4), 0.5, 0.5, F(-1, 4)),
        (F(1, 4), 0, 1, F(-1, 4)),
    ])
    def test_affine_exponential(self, c0, c1, a, c):
        b = defset_of_exponential((c0, c1)).boundary
        assert _same(b.a, a) and _same(b.c, c)

    @pytest.mark.parametrize("alphas, a, wire", [
        ([F(1, 2), F(1, 3)], F(1, 3), "1/3"),
        ([0, F(1, 2)], F(1, 2), "1/2"),
        ([0], F(1), "1/1"),
        ([], F(1), "1/1"),
        ([F(1, 2), 0.5], 0.25, 0.25),
        ([0.5, F(1, 2)], 0.25, 0.25),
        ([0.25, 0.5], 0.375, 0.375),
    ])
    def test_product(self, alphas, a, wire):
        b = defset_of_product(alphas).boundary
        assert _same(b.a, a)
        assert b.to_dict()["a"] == wire

    @pytest.mark.parametrize("outer, inner, gamma, k, wire_k", [
        ((2, 2), (3, 3), 18, F(6), "6/1"),
        ((F(1, 2), F(3)), (F(2, 3), 2), F(4, 27), F(6), "6/1"),
        ((3, 2), (F(1, 2), F(1, 2)), F(3, 4), F(1), "1/1"),
        # a fractional power of the inner gamma is a float
        ((1, F(1, 2)), (1, F(1, 2)), 1.0, F(1, 4), "1/4"),
        ((F(1, 2), 2), (F(2, 3), 0.5), F(2, 9), 1.0, 1.0),
        ((2, 2.0), (3, 3), 18.0, 6.0, 6.0),
    ])
    def test_convolve_powers(self, outer, inner, gamma, k, wire_k):
        got = convolve(DefSet(Power(*inner)), DefSet(Power(*outer))).boundary
        assert isinstance(got, Power)
        assert _same(got.gamma, gamma) and _same(got.k, k)
        assert got.to_dict()["k"] == wire_k
