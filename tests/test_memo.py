"""The objects that are built once: ``context``, ``root_system`` and
``adjoint_rep`` are ``functools.cache`` functions of positional arguments,
and ``RootSystem.structure`` is a ``cached_property``."""

import pytest

from deodhar.chevalley import adjoint_rep
from deodhar.roots import RootSystem, _StructureConstants, root_system
from deodhar.weyl import context


def test_repeated_calls_return_one_object():
    assert context("B", 3) is context("B", 3)
    assert root_system("A", 4) is root_system("A", 4)
    assert context("B", 3).system is root_system("B", 3)
    ctx = context("A", 2)
    assert adjoint_rep(ctx) is adjoint_rep(ctx)
    assert adjoint_rep(ctx).ctx is ctx


@pytest.mark.parametrize(
    "call",
    [
        lambda: context(family="B", rank=3),
        lambda: context("B", rank=3),
        lambda: root_system(family="B", rank=3),
        lambda: adjoint_rep(ctx=context("B", 3)),
    ],
    ids=["context", "context-rank", "root_system", "adjoint_rep"],
)
def test_keyword_call_is_rejected(call):
    # a keyword call would get a cache key of its own, and so a second object
    with pytest.raises(TypeError):
        call()


@pytest.mark.parametrize("build", [context, root_system])
@pytest.mark.parametrize(
    "family,rank,message",
    [
        ("C", 3, "unknown family 'C'"),
        ("A", 0, "type A needs rank >= 1"),
        ("B", 1, "type B needs rank >= 2"),
        ("B", 17, "rank 17 exceeds 16"),
    ],
)
def test_rejected_arguments_are_not_cached(build, family, rank, message):
    size = build.cache_info().currsize
    for _ in range(2):
        with pytest.raises(ValueError, match=message):
            build(family, rank)
    assert build.cache_info().currsize == size


def test_structure_is_built_once_per_system(monkeypatch):
    built = []
    realization = _StructureConstants._basis_matrices

    def counted(self):
        built.append(self.system)
        return realization(self)

    monkeypatch.setattr(_StructureConstants, "_basis_matrices", counted)
    system = RootSystem("A", 2)
    assert system.structure is system.structure
    assert built == [system]
    # a directly built system is not the shared one and builds its own
    # table, which the corruption tests of test_roots rely on
    other = RootSystem("A", 2)
    assert other is not root_system("A", 2)
    assert other.structure is not system.structure
    assert built == [system, other]
