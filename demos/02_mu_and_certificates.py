"""The unbalanced dichromatic number mu and its certificates.

mu(D, z1, z2) is the least number of parts in a vertex partition where no
part induces an unbalanced cycle.  The exact solver returns both a partition
(the upper-bound certificate) and a lower-bound certificate: a clique of
digons with nonzero weight, no two of whose vertices can share a part, and a
search trace showing that the part counts from the clique size up to the
value minus one were exhausted.  On K5 the clique is all five vertices, so
it certifies the value alone: no search runs, and the trace reads
((5, 0),), one attempt at five parts with no node explored.
"""

from dichromate import (BiorientedCliqueOracle, ExactMuOracle,
                        gen_bioriented_clique, gen_random, mu_exact,
                        mu_greedy_upper, verify_lower_bound, verify_partition)

inst = gen_bioriented_clique(5)
result = mu_exact(inst.digraph)
print("mu of the fully z1-labeled bioriented K5:", result.value)
print("certificate blocks:", [sorted(b) for b in result.certificate.blocks])
print("certificate verifies:", verify_partition(inst.digraph, result.certificate))
trace = result.lower_bound_trace[0]
print("digon clique:", trace.clique)
print("search trace (part count, nodes explored):", trace.attempts)
print("lower bound verifies:", verify_lower_bound(inst.digraph, result))

# mu is the maximum over the strong components, which the exact solver
# searches one by one; the greedy partition is a quick upper bound.
D = gen_random(8, 0.3, 0.6, 0.2, seed=5).digraph
print("\nrandom digraph:", D)
print("mu_exact:        ", mu_exact(D).value)
print("greedy upper:    ", mu_greedy_upper(D).num_blocks)

# The decomposition pipelines only query mu through an oracle, so structured
# families can swap the exponential solver for a closed form.
clique = gen_bioriented_clique(30).digraph
analytic = BiorientedCliqueOracle(clique)
print("\nanalytic oracle on K30 subset:", analytic.mu(range(12)))
exact = ExactMuOracle(D)
print("exact oracle threshold query mu >= 2:", exact.mu_at_least(D.vertices, 2))
