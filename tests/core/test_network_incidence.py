"""``Network`` incidence caches against brute-force references.

The constructor fills ``Paths(l)`` in one pass over the paths; these
properties pin it to the per-link scan it replaced — equal sets, the
same link order, and the same frozenset iteration order (insertion
order decides it), so nothing downstream can tell the two apart.
"""

from hypothesis import given, settings, strategies as st

from repro.core.network import Network, Path


@st.composite
def random_networks(draw):
    """2–12 links (some possibly unused), 1–10 loop-free paths."""
    num_links = draw(st.integers(2, 12))
    links = [f"l{k}" for k in range(num_links)]
    num_paths = draw(st.integers(1, 10))
    paths = []
    for i in range(num_paths):
        size = draw(st.integers(1, num_links))
        chosen = draw(st.permutations(links).map(lambda p: tuple(p[:size])))
        paths.append(Path(f"p{i}", chosen))
    # Shuffle path insertion order: it decides frozenset iteration.
    paths = draw(st.permutations(paths))
    return links, paths


def _brute_force_paths_through(links, paths):
    return {
        link_id: frozenset(p.id for p in paths if link_id in p.link_set)
        for link_id in links
    }


@settings(max_examples=200, deadline=None)
@given(random_networks())
def test_paths_through_matches_per_link_scan(case):
    links, paths = case
    net = Network(links, paths)
    reference = _brute_force_paths_through(links, paths)
    assert net._paths_through == reference
    assert list(net._paths_through) == list(reference)
    for link_id, expected in reference.items():
        got = net.paths_through(link_id)
        assert got == expected
        assert list(got) == list(expected)
    assert net.unused_links() == frozenset(
        lid for lid, incident in reference.items() if not incident
    )
