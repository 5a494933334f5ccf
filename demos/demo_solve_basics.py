"""
Deciding acyclic parity-constrained orientations
================================================

An instance is a graph with undirected edges, pre-fixed arcs, and a set T of
vertices that must end up with odd in-degree.  The solver answers whether
the edges can be directed so the whole thing is acyclic and T-odd.
"""

from oddorient import (
    OrientationProblem,
    PartiallyDirectedGraph,
    decide,
    is_T_odd_on,
    is_acyclic,
    parity_feasible,
)

# a path on four vertices, middle link already directed
g = PartiallyDirectedGraph.build(
    vertices=[0, 1, 2, 3],
    edges=[(0, 1), (2, 3)],
    arcs=[(1, 2)],
)
problem = OrientationProblem.build(g, odd_set=[1, 2, 3])

result = decide(problem)
print("status:", result.status)
print("witness arcs:", sorted(result.witness.arcs))
print("parity ok:", is_T_odd_on(problem, result.witness))
print("acyclic:", is_acyclic(result.witness.arcs).acyclic)

# the parity condition: |E| + |A| + |T| must be even, because every link
# contributes exactly one unit of in-degree somewhere; decide checks it
# exactly, for each connected set of edges, and names a vertex of one
# that cannot meet it
odd_total = OrientationProblem.build(g, odd_set=[1, 2])
print("\nparity-violating variant feasible?", parity_feasible(odd_total))
print("decide:", decide(odd_total).status, "-", decide(odd_total).detail)

# an unsatisfiable but parity-consistent case: a triangle whose three
# vertices all demand odd in-degree (in-degrees must sum to 3 as 1+1+1,
# which forces a directed cycle)
tri = PartiallyDirectedGraph.build([0, 1, 2], [(0, 1), (1, 2), (0, 2)], [])
all_odd = OrientationProblem.build(tri, odd_set=[0, 1, 2])
print("\ntriangle, all vertices odd:", decide(all_odd).status)
