"""BFS levels, level splits, connector sets, and nested sequences.

A connector set X keeps a quarter of the digraph's mu while guaranteeing an
X-path (endpoints in X, interior outside X) between every ordered pair of
its vertices.  Iterating the construction yields nested sets whose
innermost pairs are joined by paths confined to prescribed shells, the
geometric backbone of the whole extraction pipeline.
"""

from dichromate import (OUT, BiorientedCliqueOracle, connector_set,
                        gen_bioriented_clique, level_split,
                        nested_connector_sequence)

D = gen_bioriented_clique(16).digraph
oracle = BiorientedCliqueOracle(D)

split = level_split(D, 0, OUT, oracle)
print("out-leveling from 0:", [sorted(L) for L in split.tree.levels])
print(f"best (level, component): level {split.level_index}, "
      f"mu {split.mu_of_component} via {split.provenance}")

cs = connector_set(D, oracle)
print(f"\nconnector set X ({len(cs.X)} vertices, mu {cs.mu_value}):", sorted(cs.X))
x, y = sorted(cs.X)[:2]
path = cs.path(x, y)
print(f"X-path {x} -> {y}:", path.vertices, "(interior avoids X)")

seq = nested_connector_sequence(D, 2, oracle)
print("\nnested sets:", [len(s) for s in seq.sets])
inner = sorted(seq.sets[2])[:2]
for level in (1, 2):
    p = seq.path(inner[0], inner[1], level)
    shell = sorted(seq.shell(level))
    print(f"level-{level} path {p.vertices}; interior stays in shell {shell}")
