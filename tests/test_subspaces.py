import ast
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import gradelie
import gradelie.subspaces as subspaces_module
from gradelie.scalars import Q
from gradelie.matrices import Mat, ShapeError
from gradelie.subspaces import (
    MatSubspace,
    Subspace,
    _Echelon,
    canonicalize,
    column_kernel,
    linear_relations,
    mat_inverse,
    mat_span,
    span_basis_mats,
    span_closure,
    stack_vertical,
    subspace_intersect,
    subspace_sum,
)


def test_canonicalize_examples():
    assert canonicalize([]).dim == 0
    full = canonicalize([[0, 1], [1, 0]])
    assert full == Subspace.full(2)
    s = canonicalize([[1, 1, 0], [2, 2, 0], [0, 0, 3]])
    assert s.dim == 2
    assert s.basis_rows == Mat.from_rows([[1, 1, 0], [0, 0, 1]])


def test_canonicalize_idempotent_and_order_independent():
    rng = random.Random(1)
    for _ in range(50):
        k = rng.randint(1, 5)
        vecs = [
            [rng.randint(-3, 3) for _ in range(k)] for _ in range(rng.randint(0, 4))
        ]
        s = canonicalize(vecs, ambient_dim=k)
        assert canonicalize(s.basis_rows.rows(), ambient_dim=k) == s
        rng.shuffle(vecs)
        assert canonicalize(vecs, ambient_dim=k) == s


def test_sum_examples():
    a = canonicalize([[1, 1]])
    zero = Subspace.zero(2)
    assert subspace_sum(a, zero) == a
    assert subspace_sum(canonicalize([[1, 0]]), canonicalize([[0, 1]])) == Subspace.full(2)
    assert subspace_sum(canonicalize([[1, 1]]), canonicalize([[1, -1]])) == Subspace.full(2)


def test_intersect_examples():
    a = canonicalize([[1, 2, 3], [0, 1, 1]])
    assert subspace_intersect(a, a) == a
    assert subspace_intersect(canonicalize([[1, 0]]), canonicalize([[0, 1]])).dim == 0
    got = subspace_intersect(Subspace.full(2), canonicalize([[1, 1]]))
    assert got == canonicalize([[1, 1]])


def test_dimension_identity():
    rng = random.Random(4)
    for _ in range(80):
        k = rng.randint(1, 6)
        va = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(0, 3))]
        vb = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(0, 3))]
        a = canonicalize(va, ambient_dim=k)
        b = canonicalize(vb, ambient_dim=k)
        s = subspace_sum(a, b)
        i = subspace_intersect(a, b)
        assert s.dim + i.dim == a.dim + b.dim
        for v in i.basis_rows.rows():
            assert a.contains(v) and b.contains(v)


def test_contains():
    assert canonicalize([[1, 1, 1]]).contains([3, 3, 3])
    assert not canonicalize([[1, 0]]).contains([1, 1])
    assert Subspace.zero(3).contains([0, 0, 0])
    with pytest.raises(ShapeError):
        canonicalize([[1, 0]]).contains([1, 0, 0])


def test_coordinates():
    s = canonicalize([[1, 0, 1], [0, 1, 1]])
    coords = s.coordinates([2, 3, 5])
    assert coords == [Q(2), Q(3)]
    assert s.coordinates([1, 0, 0]) is None


def test_rational_kernel_regression():
    # regression: kernels of matrices with non-unit denominators
    a = Mat.from_rows(
        [
            [Fraction(1), Fraction(40, 21), Fraction(10, 7), Fraction(20, 21)],
            [Fraction(-3, 14), Fraction(-20, 21), Fraction(-1, 7), Fraction(-10, 21)],
            [Fraction(19, 14), Fraction(4, 3), Fraction(1, 7), Fraction(26, 21)],
            [Fraction(-9, 7), Fraction(-44, 21), Fraction(-10, 7), Fraction(-40, 21)],
        ]
    )
    lam = Q(Fraction(8, 7))
    ker = column_kernel(a - Mat.identity(4).scale(lam))
    assert len(ker) == 1
    v = [ker[0].entry(i, 0) for i in range(4)]
    image = [sum((a.entry(i, j) * v[j] for j in range(4)), Q(0)) for i in range(4)]
    assert image == [lam * x for x in v]


def test_column_kernel_random():
    rng = random.Random(8)
    for _ in range(60):
        n = rng.randint(1, 4)
        m = Mat.from_int_rows([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
        for col in column_kernel(m):
            assert col.shape == (n, 1)
            v = [col.entry(i, 0) for i in range(n)]
            image = [sum((m.entry(i, j) * v[j] for j in range(n)), Q(0)) for i in range(n)]
            assert all(x.is_zero() for x in image)


def test_mat_inverse():
    m = Mat.from_rows([[Fraction(1, 2), Fraction(1, 3)], [0, Fraction(2, 5)]])
    inv = mat_inverse(m)
    assert m @ inv == Mat.identity(2)
    assert inv @ m == Mat.identity(2)
    with pytest.raises(ValueError):
        mat_inverse(Mat.from_int_rows([[1, 2], [2, 4]]))


def row_major(m):
    return tuple(x for row in m.rows() for x in row)


def test_mat_span_round_trip():
    mats = [Mat.unit(2, 0, 1), Mat.unit(2, 1, 0), Mat.identity(2)]
    s = mat_span(mats)
    assert s.dim == 3
    back = span_basis_mats(s, 2)
    assert mat_span(back) == s
    for m in back:
        assert s.contains(row_major(m))


def test_stack_vertical():
    a = Mat.from_int_rows([[1, 2]])
    b = Mat.from_int_rows([[3, 4], [5, 6]])
    assert stack_vertical([a, b]) == Mat.from_int_rows([[1, 2], [3, 4], [5, 6]])


def test_matrices_and_vectors_share_one_row_format():
    mats = [Mat.unit(2, 0, 1), Mat.identity(2)]
    s = mat_span(mats)
    assert s.contains(Mat.from_rows([[3, 5], [0, 3]]))
    assert s.contains(row_major(Mat.from_rows([[3, 5], [0, 3]])))
    assert s.coordinates(Mat.from_rows([[2, 7], [0, 2]])) == [Q(2), Q(7)]
    assert s.coordinates(Mat.unit(2, 1, 0)) is None
    outsider = Mat.unit(2, 1, 0)
    assert s.outside([mats[0], outsider, Mat.identity(2)]) is outsider
    assert s.contains_all(mats) and not s.contains_all([outsider])
    with pytest.raises(ShapeError):
        s.contains(Mat.identity(3))


def test_linear_relations():
    a, b = Mat.unit(2, 0, 1), Mat.unit(2, 1, 0)
    (rel,) = linear_relations([a, b, a.scale(Q(2)) - b.scale(Q(0, 1))])
    assert a.scale(rel[0]) + b.scale(rel[1]) + (a.scale(Q(2)) - b.scale(Q(0, 1))).scale(rel[2]) == Mat.zeros(2)
    assert linear_relations([[1, 0], [0, 1]]) == []
    assert linear_relations([]) == []
    with pytest.raises(ShapeError):
        linear_relations([[1, 0], [1, 0, 0]])


def test_combination_of_the_canonical_basis():
    m = MatSubspace.from_matrices([Mat.unit(2, 0, 1), Mat.identity(2)])
    target = Mat.from_rows([[Fraction(1, 2), Q(0, 3)], [0, Fraction(1, 2)]])
    assert m.combination(m.span.coordinates(target)) == target
    assert m.combination([]) == Mat.zeros(2)


def test_echelon_rebuild_does_not_eliminate(monkeypatch):
    rng = random.Random(12)
    cases = [Subspace.zero(3), Subspace.full(3)]
    for _ in range(20):
        k = rng.randint(1, 5)
        vecs = [
            [Q(Fraction(rng.randint(-3, 3), rng.randint(1, 3)), rng.randint(-2, 2)) for _ in range(k)]
            for _ in range(rng.randint(1, 4))
        ]
        cases.append(canonicalize(vecs, ambient_dim=k))
    expected = []
    for s in cases:
        ref = _Echelon(s.ambient_dim)
        for v in s.basis_rows.rows():
            ref.add(v)
        expected.append((ref.rows, ref.pivots))

    def no_insert(self, row):
        raise AssertionError("_echelon() eliminated again")

    monkeypatch.setattr(_Echelon, "insert", no_insert)
    for s, (rows, pivots) in zip(cases, expected):
        ech = s._echelon()
        assert (ech.rows, ech.pivots) == (rows, pivots)
        assert ech.subspace() == s


def _permutation(images):
    """The linear map e_j -> e_images[j] on vectors of length len(images)."""
    width = len(images)
    return lambda v: tuple(sum(v[j] for j in range(width) if images[j] == i) for i in range(width))


def _unit(width, i):
    return tuple(int(j == i) for j in range(width))


def test_span_closure_is_a_fifo_worklist():
    calls = []

    def counted(act):
        return lambda v: calls.append(None) or act(v)

    a = counted(_permutation([1, 3, 4, 0, 0, 0]))
    b = counted(_permutation([2, 5, 0, 0, 0, 0]))
    found, span = span_closure([_unit(6, 0)], [a, b], 6)
    # breadth first: e0, then a e0 and b e0, then a e1 and b e1, then a e2
    assert found == [_unit(6, i) for i in (0, 1, 2, 3, 5, 4)]
    assert span == Subspace.full(6)
    # the span is whole after a e2, so b e2 and the last three items are never acted on
    assert len(calls) == 5


def test_span_closure_edge_cases():
    def never(v):
        raise AssertionError("acted on a full span")

    found, span = span_closure([_unit(3, 0), _unit(3, 2), _unit(3, 1)], [never], 3)
    assert found == [_unit(3, 0), _unit(3, 2), _unit(3, 1)]
    assert span == Subspace.full(3)
    assert span_closure([], [never], 3) == ([], Subspace.zero(3))
    assert span_closure([(0, 0, 0)], [never], 3) == ([], Subspace.zero(3))
    v, w = (1, Q(0, 1), 0), (0, 1, 1)
    found, span = span_closure([v, w, (1, Q(1, 1), 1)], [], 3)
    assert found == [v, w]
    assert span == canonicalize([v, w])
    # matrices are read row-major: the unital algebra E_01 generates
    found, span = span_closure([Mat.identity(2)], [lambda m: Mat.unit(2, 0, 1) @ m], 4)
    assert found == [Mat.identity(2), Mat.unit(2, 0, 1)]
    assert span == mat_span(found)


def test_row_format_stays_in_subspaces():
    package = Path(subspaces_module.__file__).parent
    row_internals = re.compile(
        r"\b(_row_\w*|_rows_of|_augmented|_identity_tails|_stacked|_mat_row|_values_row)\b"
        r"|\[\s*list\(\s*\w+\.re\s*\)\s*,\s*list\(\s*\w+\.im\s*\)\s*,\s*\w+\.den\s*\]"
    )
    offenders = [
        f"{path.name}: {match.group(0)}"
        for path in sorted(package.glob("*.py"))
        if path.name != "subspaces.py"
        for match in row_internals.finditer(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []


# Module-level names of src/gradelie that nothing in src/ references, each
# kept on purpose.
_UNREFERENCED_ALLOWED = {
    "canonicalize": "the one public constructor of a Subspace from vectors (README)",
    "linear_relations": "the relations the Dickson radical stage of the roadmap reads",
    "m_bracket_powers": "acceptance criteria call it",
    "is_lie_n_product_system": "acceptance criteria call it",
}


def test_every_module_level_name_is_referenced_in_src():
    package = Path(subspaces_module.__file__).parent
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = {}
    for name, tree in trees.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            for target in targets:
                if not (target.startswith("__") and target.endswith("__")):
                    defined[target] = name
    unreferenced = sorted(f"{module}: {target}" for target, module in defined.items() if target not in used)
    assert unreferenced == sorted(f"{defined[t]}: {t}" for t in _UNREFERENCED_ALLOWED)


def test_one_class_for_subspaces_of_gl_n():
    assert gradelie.LieAlgebra is gradelie.MatSubspace
    package = Path(subspaces_module.__file__).parent
    type_tests = re.compile(r"isinstance\([^)]*\b(LieAlgebra|MatSubspace)\b")
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if type_tests.search(path.read_text(encoding="utf-8"))
    ]
    assert offenders == []
