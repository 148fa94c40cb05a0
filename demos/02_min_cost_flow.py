"""The generic min-cost flow solver on a hand-built network.

Two units of flow must travel from the source to the sink; the cheap
middle route has capacity one, so the solver splits the flow across
routes to stay optimal. Asking for four units, one more than the network
carries, shows the maximum flow that the infeasibility error reports.
"""

from mapdflow import (FlowInfeasibleError, FlowNetwork, solve_min_cost_flow,
                     to_dimacs)

#       1 --(cap 1, cost 1)--> 3
#  0 ->                          -> 5
#       2 --(cap 2, cost 2)--> 4
net = FlowNetwork(num_nodes=6, source=0, sink=5)
net.add_edge(0, 1, 1, 0.0)
net.add_edge(0, 2, 2, 0.0)
net.add_edge(1, 3, 1, 1.0)
net.add_edge(2, 4, 2, 2.0)
net.add_edge(2, 3, 1, 2.5)      # cross route with a real-valued cost
net.add_edge(3, 5, 2, 0.0)
net.add_edge(4, 5, 1, 0.0)

# Asking for more than the network can carry raises, and the error reports
# the maximum: the flow sent when no augmenting path was left.
net.required_flow = 4
try:
    solve_min_cost_flow(net)
except FlowInfeasibleError as err:
    print("max feasible flow:", err.max_feasible)

net.required_flow = 2
solution = solve_min_cost_flow(net)
print(f"required 2 units -> total cost {solution.total_cost}")
for e, f in enumerate(solution.flow):
    if f:
        print(f"  edge {net.tails[e]} -> {net.heads[e]}: flow {f} "
              f"(cost {net.costs[e]})")

print("\nDIMACS dump for cross-checking with external solvers:")
print(to_dimacs(net, solution))
