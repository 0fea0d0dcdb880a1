import pytest

from oracles import free_trees_by_rooted_scan
from sigdom.graphs import is_tree, path_graph, star_graph, write_graph6
from sigdom.trees import free_trees

# published census of free trees by order
FREE_TREE_COUNTS = {
    1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23,
    9: 47, 10: 106, 11: 235, 12: 551, 13: 1301, 14: 3159, 15: 7741, 16: 19320,
}


@pytest.mark.parametrize("n,count", sorted(FREE_TREE_COUNTS.items()))
def test_census_counts(n, count):
    assert sum(1 for _ in free_trees(n)) == count


def test_same_trees_and_order_as_rooted_scan():
    # the rooted scan keeps each tree's first (lexicographically largest)
    # rooting, so labels and order must agree, not only the classes
    for n in range(1, 14):
        expected = [write_graph6(t) for t in free_trees_by_rooted_scan(n)]
        assert [write_graph6(t) for t in free_trees(n)] == expected, n


def test_outputs_are_trees():
    for n in range(1, 10):
        for t in free_trees(n):
            assert t.n == n
            assert is_tree(t) or n == 1


def test_small_orders_explicitly():
    trees4 = list(free_trees(4))
    assert len(trees4) == 2
    degree_seqs = {tuple(sorted(t.degrees())) for t in trees4}
    assert degree_seqs == {(1, 1, 2, 2), (1, 1, 1, 3)}  # path and star


def test_contains_path_and_star_shapes():
    for n in (5, 8):
        seqs = {tuple(sorted(t.degrees())) for t in free_trees(n)}
        assert tuple(sorted(path_graph(n).degrees())) in seqs
        assert tuple(sorted(star_graph(n).degrees())) in seqs


def test_deterministic_order():
    a = [t.adj for t in free_trees(7)]
    b = [t.adj for t in free_trees(7)]
    assert a == b


def test_order_bounds():
    with pytest.raises(ValueError):
        list(free_trees(0))
    with pytest.raises(ValueError):
        list(free_trees(17))
