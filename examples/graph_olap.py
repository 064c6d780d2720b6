"""Graph OLAP with aggregate views (paper §6).

Rolls a social network up into location-level summaries: users grouped by
city into super-nodes, call volumes folded into super-edges — then a view
over the view: the city-level summary filtered to heavy corridors, and a
further rollup to states. Demonstrates that aggregate views are ordinary
graphs in the system ("views over views").

Run:  python examples/graph_olap.py
"""

from repro import Graphsurge
from repro.algorithms import PageRank
from repro.datasets import social_like


def main() -> None:
    graph = social_like(num_nodes=300, num_edges=1800, seed=3,
                        name="network")
    gs = Graphsurge()
    gs.add_graph(graph)
    print(f"base graph: {graph!r}")

    # --- Rollup 1: users -> cities -----------------------------------------
    gs.execute(
        "create view city-traffic on network "
        "nodes group by city aggregate users: count(*) "
        "edges aggregate volume: sum(affinity)")
    cities = gs.views.get_view("city-traffic")
    print(f"\ncity rollup: {cities.num_nodes} super-nodes, "
          f"{cities.num_edges} super-edges")
    busiest = sorted(cities.edges, key=lambda e: -e.properties["volume"])[:5]
    for edge in busiest:
        src = cities.node_property(edge.src, "city")
        dst = cities.node_property(edge.dst, "city")
        print(f"  {src:7} -> {dst:7}: volume {edge.properties['volume']:4} "
              f"across {edge.properties['count']} edges")

    # --- A filtered view over the aggregate view ---------------------------
    gs.execute(
        "create view heavy-corridors on city-traffic "
        "edges where volume >= 20")
    corridors = gs.views.get_view("heavy-corridors")
    print(f"\nheavy corridors (volume >= 20): {corridors.num_edges} of "
          f"{cities.num_edges} city pairs")

    # --- Rollup 2: users -> states (independent grouping) ------------------
    gs.execute(
        "create view state-traffic on network "
        "nodes group by state, country "
        "aggregate users: count(*) "
        "edges aggregate volume: sum(affinity), strongest: max(affinity)")
    states = gs.views.get_view("state-traffic")
    print(f"\nstate rollup: {states.num_nodes} super-nodes")
    for node in states.nodes.values():
        print(f"  {node.properties['state']:7} "
              f"({node.properties['country']}): "
              f"{node.properties['users']} users")

    # --- Analytics on a summary graph --------------------------------------
    ranks = gs.run_analytics(PageRank(iterations=10), "city-traffic")
    top = sorted(ranks.vertex_map().items(), key=lambda kv: -kv[1])[:3]
    print("\nmost central cities by PageRank over the rollup:")
    for node_id, rank in top:
        print(f"  {cities.node_property(node_id, 'city'):7} "
              f"rank={rank / 1_000_000:.3f}")


if __name__ == "__main__":
    main()
