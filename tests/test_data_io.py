"""Dataset loaders, the round-trip serializer, and summary statistics."""

import json
import re

import numpy as np
import pytest

import hypersir as hs
from hypersir.cli import main


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_basic_edge_list(tmp_path):
    p = write(tmp_path, "h.txt", "0 1 2\n1 2 3\n")
    h = hs.load_hyperedge_list(p)
    assert h.num_nodes == 4
    assert h.num_hyperedges == 2
    assert len(h.hyperedges[0]) == 3


def test_load_remaps_string_labels(tmp_path):
    p = write(tmp_path, "h.txt", "a b\nb c\n")
    h = hs.load_hyperedge_list(p)
    assert h.num_nodes == 3
    assert h.node_labels == ("a", "b", "c")
    assert h.hyperedges == ((0, 1), (1, 2))


def test_load_comma_separated_and_blank_lines(tmp_path):
    p = write(tmp_path, "h.csv", "0, 1, 2\n\n2,3\n# trailing comment\n")
    h = hs.load_hyperedge_list(p)
    assert h.num_nodes == 4
    assert h.num_hyperedges == 2


def test_load_rejects_duplicate_in_line(tmp_path):
    p = write(tmp_path, "h.txt", "1 1 2\n")
    with pytest.raises(ValueError, match="line 1"):
        hs.load_hyperedge_list(p)
    p2 = write(tmp_path, "h2.txt", "0 1\n2 3 3\n")
    with pytest.raises(ValueError, match="line 2"):
        hs.load_hyperedge_list(p2)


def test_load_rejects_empty_label(tmp_path):
    p = write(tmp_path, "h.txt", "1,2,\n")
    with pytest.raises(ValueError, match="line 1"):
        hs.load_hyperedge_list(p)


def test_load_rejects_whitespace_inside_comma_separated_label(tmp_path):
    p = write(tmp_path, "h.txt", "a b\nz,w\nx y,z\n")
    with pytest.raises(ValueError, match="line 3: whitespace"):
        hs.load_hyperedge_list(p)
    tab = write(tmp_path, "t.txt", "x\ty,z\n")
    with pytest.raises(ValueError, match="line 1"):
        hs.load_hyperedge_list(tab)


def test_load_missing_file(tmp_path):
    with pytest.raises(OSError):
        hs.load_hyperedge_list(tmp_path / "nope.txt")


def test_benson_pair_format(tmp_path):
    nv = write(tmp_path, "nverts.txt", "3\n2\n")
    sx = write(tmp_path, "simplices.txt", "1\n2\n3\n2\n4\n")
    h = hs.load_benson(nv, sx)
    assert h.num_nodes == 4
    assert h.node_labels == ("1", "2", "3", "4")
    assert h.hyperedges == ((0, 1, 2), (1, 3))


def test_benson_count_mismatch(tmp_path):
    nv = write(tmp_path, "nverts.txt", "3\n3\n")
    sx = write(tmp_path, "simplices.txt", "1\n2\n3\n2\n4\n")
    with pytest.raises(ValueError) as err:
        hs.load_benson(nv, sx)
    assert "6" in str(err.value) and "5" in str(err.value)


def test_benson_collapses_repeated_member(tmp_path):
    nv = write(tmp_path, "nverts.txt", "3\n")
    sx = write(tmp_path, "simplices.txt", "7\n7\n9\n")
    h = hs.load_benson(nv, sx)
    assert h.hyperedges == ((0, 1),)
    with pytest.raises(ValueError):
        hs.load_benson(nv, sx, collapse_duplicates=False)


def test_benson_rejects_bad_size(tmp_path):
    nv = write(tmp_path, "nverts.txt", "0\n")
    sx = write(tmp_path, "simplices.txt", "")
    with pytest.raises(ValueError):
        hs.load_benson(nv, sx)
    nv = write(tmp_path, "nverts.txt", "2\n2.5\n")
    with pytest.raises(ValueError, match=r"nverts\.txt: hyperedge size '2\.5' is not an integer"):
        hs.load_benson(nv, sx)


def test_round_trip_preserves_stats(tmp_path):
    rng = np.random.default_rng(12)
    edges = []
    for _ in range(60):
        s = int(rng.integers(2, 5))
        edges.append(rng.choice(40, size=s, replace=False).tolist())
    # the text format cannot express edge-free nodes, so cover them all
    missing = sorted(set(range(40)) - {v for e in edges for v in e})
    edges += [[v, (v + 1) % 40] for v in missing]
    h = hs.Hypergraph(40, edges)
    p = tmp_path / "out.txt"
    hs.save_hyperedge_list(h, p)
    back = hs.load_hyperedge_list(p)
    assert hs.dataset_stats(back) == hs.dataset_stats(h)


def test_round_trip_keeps_labels(tmp_path):
    p = write(tmp_path, "h.txt", "x y z\ny w\n")
    h = hs.load_hyperedge_list(p)
    q = tmp_path / "again.txt"
    hs.save_hyperedge_list(h, q)
    assert q.read_text() == "x y z\nw y\n" or q.read_text() == "x y z\ny w\n"
    assert hs.load_hyperedge_list(q).num_nodes == 4


def test_labels_survive_giant_component_round_trip(tmp_path):
    p = write(tmp_path, "h.txt", "x y\na b c\nc d\n")
    gcc, remap = hs.giant_component(hs.load_hyperedge_list(p))
    assert gcc.node_labels == ("a", "b", "c", "d") and remap.tolist() == [-1, -1, 0, 1, 2, 3]
    q = tmp_path / "gcc.txt"
    hs.save_hyperedge_list(gcc, q)
    assert q.read_text() == "a b c\nc d\n"
    back = hs.load_hyperedge_list(q)
    assert [[back.node_labels[v] for v in e] for e in back.hyperedges] == [["a", "b", "c"], ["c", "d"]]


def test_labelled_round_trip_is_exact(tmp_path):
    h = hs.Hypergraph(4, [(0, 1, 2), (2, 3)], node_labels=("n0", "b-2", "x.y", "Z"))
    q = tmp_path / "out.txt"
    hs.save_hyperedge_list(h, q)
    back = hs.load_hyperedge_list(q)
    assert back.node_labels == h.node_labels and back.hyperedges == h.hyperedges


@pytest.mark.parametrize("bad", ["a,b", "", "a b", "a\tb", "#a"])
def test_save_rejects_labels_that_do_not_round_trip(tmp_path, bad):
    h = hs.Hypergraph(3, [(0, 1), (1, 2)], node_labels=("ok", bad, "c"))
    q = tmp_path / "out.txt"
    with pytest.raises(ValueError, match=re.escape(f"node label {bad!r} does not survive")):
        hs.save_hyperedge_list(h, q)
    assert not q.exists()


def test_comma_label_from_paired_format_is_not_saved(tmp_path):
    # "a,b" is one label in the paired format but two in a hyperedge list
    nv = write(tmp_path, "nverts.txt", "2 2\n")
    sx = write(tmp_path, "simplices.txt", "a,b c c d\n")
    h = hs.load_benson(nv, sx)
    assert h.node_labels == ("a,b", "c", "d")
    with pytest.raises(ValueError, match="'a,b'"):
        hs.save_hyperedge_list(h, tmp_path / "out.txt")


def test_node_labels_must_name_every_node():
    with pytest.raises(ValueError, match="2 node labels for 3 nodes"):
        hs.Hypergraph(3, [(0, 1, 2)], node_labels=("a", "b"))


def test_stats_single_triple():
    h = hs.Hypergraph(3, [[0, 1, 2]])
    st = hs.dataset_stats(h)
    assert (st.n, st.m, st.gcc_size) == (3, 1, 3)
    assert st.mean_node_degree == 2.0
    assert st.mean_hyperdegree == 1.0
    assert st.k1_mean == 2.0
    assert st.k2_mean == 1.0
    assert st.skipped_large_hyperedges == 0


def test_stats_counts_full_set_but_means_on_gcc():
    # triangle component plus an isolated pair edge
    h = hs.Hypergraph(5, [[0, 1, 2], [0, 1], [3, 4]])
    st = hs.dataset_stats(h)
    assert (st.n, st.m, st.gcc_size) == (5, 3, 3)
    # GCC nodes: 0,1 have hyperdegree 2, node 2 has 1
    assert st.mean_hyperdegree == pytest.approx(5 / 3)
    gcc, _ = hs.giant_component(h)
    again = hs.dataset_stats(gcc)
    assert again.gcc_size == gcc.num_nodes == again.n
    for f in ("mean_node_degree", "mean_hyperdegree", "k1_mean", "k2_mean"):
        assert getattr(again, f) == getattr(st, f)


def test_stats_dedup_flag():
    h = hs.Hypergraph(3, [[0, 1, 2], [0, 1, 2]])
    kept = hs.dataset_stats(h)
    assert (kept.m, kept.k1_mean, kept.k2_mean) == (2, 4.0, 2.0)
    assert not kept.deduplicated
    dd = hs.dataset_stats(h, dedup=True)
    assert (dd.m, dd.k1_mean, dd.k2_mean) == (1, 2.0, 1.0)
    assert dd.deduplicated
    assert dd.mean_node_degree == kept.mean_node_degree == 2.0


def test_stats_tallies_oversize_hyperedges():
    h = hs.Hypergraph(30, [list(range(30))])
    st = hs.dataset_stats(h)
    assert st.skipped_large_hyperedges == 1
    assert st.k2_mean == 0.0
    assert st.k1_mean == 29.0
    assert hs.dataset_stats(h, size_cap=30).skipped_large_hyperedges == 0


def test_stats_empty_hypergraph():
    st = hs.dataset_stats(hs.Hypergraph(0, []))
    assert st == hs.DatasetStats(0, 0, 0, 0.0, 0.0, 0.0, 0.0, 0)


def test_stats_validation():
    with pytest.raises(ValueError):
        hs.DatasetStats(2, 1, 3, 1.0, 1.0, 1.0, 1.0, 0)
    with pytest.raises(ValueError):
        hs.DatasetStats(3, 1, 3, -1.0, 1.0, 1.0, 1.0, 0)


def test_stats_json_and_table(tmp_path):
    h = hs.Hypergraph(3, [[0, 1, 2]])
    st = hs.dataset_stats(h)
    assert main(["stats", "--dataset", str(write(tmp_path, "toy.txt", "0 1 2\n")),
                 "--output-dir", str(tmp_path / "out")]) == 0
    loaded = json.loads((tmp_path / "out" / "stats.json").read_text())["retained"]
    assert loaded["n"] == 3 and loaded["k2_mean"] == 1.0
    tp = tmp_path / "table.csv"
    hs.write_stats_table({"toy": st, "toy2": st}, tp)
    lines = tp.read_text().splitlines()
    assert lines[0] == "# schema=dataset_stats.v1"
    assert lines[1] == ("dataset,n,m,gcc_size,mean_node_degree,mean_hyperdegree,"
                        "k1_mean,k2_mean,skipped_large_hyperedges,deduplicated")
    assert lines[2:] == ["toy,3,1,3,2,1,2,1,0,False", "toy2,3,1,3,2,1,2,1,0,False"]
    assert sorted(loaded) == sorted(lines[1].split(",")[1:])  # the JSON names the columns
