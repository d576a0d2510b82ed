"""The constructive extraction pipeline, end to end on a clique family.

Each stage's certified sufficiency threshold is astronomically larger than
anything desk-sized, but the constructions themselves run best-effort on any
input and verify every object they emit.  On fully z1-labeled bioriented
cliques with the analytic mu oracle, a core floor of 14 (the certified value
is 1536) is enough for every stage to go through.
"""

from dichromate import (BiorientedCliqueOracle, PatternArc, SubdivisionPattern,
                        extract_subdivision, gadget_sequences,
                        gen_bioriented_clique, residue_universal_set,
                        special_set, special_set_threshold, subdivision_threshold,
                        two_arc_cycle, universal_threshold, verify_witness)

FLOOR = 14

D = gen_bioriented_clique(26).digraph
oracle = BiorientedCliqueOracle(D)

cycle = two_arc_cycle(D, oracle)
print("cycle with two class-distinguishing arcs:", cycle.vertices)

stage = special_set(D, 0, 2, oracle, floor=FLOOR)
print(f"\nspecial set: |Y| = {len(stage.Y)}, |U| = {len(stage.U)}, "
      f"residues (r, s) = ({stage.r}, {stage.s})")
print("gadget path into U:", stage.path.vertices)

gs = gadget_sequences(D, 0, 2, oracle, floor=FLOOR)
print("\ngadget stages:", gs.steps, "from anchors", [st.x for st in gs.stages],
      "with mu trace", gs.mu_trace)

rus = residue_universal_set(D, 2, oracle, floor=FLOOR)
u, v = sorted(rus.X)[:2]
print(f"\nresidue-universal set ({len(rus.X)} vertices); queries {u} -> {v}:")
for target in (0, 1):
    path = rus.query(u, v, 1, 1, target)
    print(f"  target {target}: path of length {path.length}")

pattern = SubdivisionPattern(2, (PatternArc(0, 1, 1, 1, 1, 2),))
witness = extract_subdivision(D, pattern, oracle, floor=FLOOR)
print("\nextracted single-arc subdivision, verified:",
      verify_witness(D, pattern, witness).ok)

print("\ncertified thresholds, far beyond desk scale:")
print("  special set (q=2):     ", special_set_threshold(2))
print("  universal set (q=2, 2):", universal_threshold(2, 2))
print("  this pattern:          ", subdivision_threshold(pattern))
